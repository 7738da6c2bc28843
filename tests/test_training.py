import numpy as np
import pytest

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import geometry as geo
from pointpeft import peft
from pointpeft import training as tr
from pointpeft.errors import ContractError, DataError, FreezeViolation, NumericError, UsageError


def tiny_backbone(**kw):
    base = dict(
        d=16, blocks=2, patch_size=8, heads=2, ffn_mult=2,
        num_classes=3, in_channels=6, voxel_size=0.5,
    )
    base.update(kw)
    return bb.BackboneConfig(**base)


def tiny_dataset(count=4, seed=0, ppc=16):
    return tr.generate_dataset(tr.source_spec(points_per_class=ppc), count, seed)


def per_tensor_steps(params, grads, config, lrs):
    """The optimizer's formula applied tensor by tensor: the reference the
    flat step must match bit for bit."""
    params = {n: a.copy() for n, a in params.items()}
    slots = {n: [np.zeros_like(a), np.zeros_like(a)] for n, a in params.items()}
    b1, b2, eps = tr.OptState.ADAM_B1, tr.OptState.ADAM_B2, tr.OptState.ADAM_EPS
    for t, (step_grads, lr) in enumerate(zip(grads, lrs), start=1):
        for name, data in params.items():
            g = step_grads.get(name)
            g = np.zeros_like(data) if g is None else g
            m, v = slots[name]
            if config.optimizer == "adamw":
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                mhat, vhat = m / (1 - b1**t), v / (1 - b2**t)
                data -= lr * (mhat / (np.sqrt(vhat) + eps) + config.weight_decay * data)
            else:
                m = tr.OptState.SGD_MOMENTUM * m + g + config.weight_decay * data
                data -= lr * m
            slots[name] = [m, v]
    return params


def step_on_grads(store, state, lr=None):
    """`tr.step` on the gradients set on the store's tensors, gathered into
    `state.g` after `state.bind`, as the training loop sums each batch."""
    items = store.trainable_items()
    state.bind(items)
    tr._flat_grads(items, state.g)
    tr.step(store, state, lr)


class TestStep:
    SHAPES = {"a": (30, 40), "frozen": (2,), "b": (50,), "c": (6, 7, 8), "d": (1,)}

    def make_store(self, rng):
        store = ag.ParamStore()
        for name, shape in self.SHAPES.items():
            store.add(name, rng.normal(size=shape), frozen=name == "frozen")
        return store

    def test_sgd_one_step(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([1.0]))
        w.grad = np.array([1.0])
        config = tr.TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, weight_decay=0.0)
        step_on_grads(store, tr.OptState(config))
        assert w.data[0] == pytest.approx(0.9, abs=1e-15)

    def test_adamw_first_step_magnitude(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([0.5]))
        w.grad = np.array([3.7])
        config = tr.TrainConfig(optimizer="adamw", learning_rate=1e-3, weight_decay=0.0)
        step_on_grads(store, tr.OptState(config))
        assert abs(w.data[0] - 0.5) == pytest.approx(1e-3, rel=1e-6)

    def test_frozen_param_with_injected_grad_flagged(self):
        """Before any parameter, trainable or not, moves."""
        store = self.make_store(np.random.default_rng(1))
        before = store.byte_snapshot()
        for _, t in store.items():
            t.grad = np.ones_like(t.data)
        state = tr.OptState(tr.TrainConfig())
        with pytest.raises(FreezeViolation):
            step_on_grads(store, state)
        assert store.byte_snapshot() == before and state.t == 0

    def test_grads_zeroed_after_step(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([1.0]))
        w.grad = np.array([1.0])
        tr.step(store, tr.OptState(tr.TrainConfig()))
        assert w.grad is None

    def test_decoupled_weight_decay_moves_zero_grad_params(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([2.0]))
        w.grad = np.array([0.0])
        config = tr.TrainConfig(optimizer="adamw", learning_rate=0.1, weight_decay=0.5)
        step_on_grads(store, tr.OptState(config))
        assert w.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)

    @pytest.mark.parametrize("optimizer", tr.OPTIMIZERS)
    def test_matches_per_tensor_formula(self, optimizer):
        rng = np.random.default_rng(0)
        store = self.make_store(rng)
        config = tr.TrainConfig(optimizer=optimizer, learning_rate=0.5, weight_decay=0.1)
        lrs = [0.5, 0.4, np.float64(0.3), 0.2, 0.1, 0.05]
        grads = [
            # "d" never gets a gradient, "b" only on some steps
            {n: rng.normal(size=shape) for n, shape in self.SHAPES.items()
             if n not in ("frozen", "d") and (n != "b" or k % 2)}
            for k in range(len(lrs))
        ]
        d0 = store["d"].data.copy()
        want = per_tensor_steps(
            {n: t.data for n, t in store.trainable_items()}, grads, config, lrs
        )
        state = tr.OptState(config)
        for step_grads, lr in zip(grads, lrs):
            for name, g in step_grads.items():
                store[name].grad = g.copy()
            step_on_grads(store, state, lr)
        for name, data in want.items():
            assert store[name].data.tobytes() == data.tobytes(), name
        assert store["d"].data != d0  # weight decay moves it without a gradient

    def test_changed_layout_rejected(self):
        store = self.make_store(np.random.default_rng(2))
        state = tr.OptState(tr.TrainConfig())
        tr.step(store, state)
        store.set_frozen("b", True)
        with pytest.raises(ContractError):
            tr.step(store, state)
        store.set_frozen("b", False)
        store.add("e", np.zeros(3))
        with pytest.raises(ContractError):
            tr.step(store, state)

    def test_bind_moves_trainable_data_into_w(self):
        store = self.make_store(np.random.default_rng(3))
        before = store.byte_snapshot()
        frozen = store["frozen"].data
        state = tr.OptState(tr.TrainConfig())
        state.bind(store.trainable_items())
        assert state.w.size == store.trainable_count
        for name, t in store.trainable_items():
            assert np.shares_memory(t.data, state.w), name
        assert store["frozen"].data is frozen and not np.shares_memory(frozen, state.w)
        assert store.byte_snapshot() == before

    def test_data_arrays_kept_across_steps(self):
        store = self.make_store(np.random.default_rng(4))
        state = tr.OptState(tr.TrainConfig(learning_rate=0.1))
        state.bind(store.trainable_items())
        arrays = {name: t.data for name, t in store.items()}
        before = store.byte_snapshot()
        for _ in range(3):
            for _, t in store.trainable_items():
                t.grad = np.ones_like(t.data)
            step_on_grads(store, state)
        assert all(store[name].data is data for name, data in arrays.items())
        after = store.byte_snapshot()
        assert [n for n in before if after[n] == before[n]] == ["frozen"]

    def test_second_store_with_same_layout_rejected(self):
        rng = np.random.default_rng(5)
        store, other = self.make_store(rng), self.make_store(rng)
        state = tr.OptState(tr.TrainConfig())
        tr.step(store, state)
        bound, before = store.byte_snapshot(), other.byte_snapshot()
        with pytest.raises(ContractError):
            tr.step(other, state)
        assert store.byte_snapshot() == bound and other.byte_snapshot() == before


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", float("nan")), ("learning_rate", float("inf")),
            ("learning_rate", 0.0), ("learning_rate", -1e-3),
            ("weight_decay", float("nan")), ("weight_decay", float("inf")),
            ("weight_decay", -1.0),
        ],
    )
    def test_out_of_range_number_rejected(self, field, value):
        with pytest.raises(UsageError, match=field):
            tr.TrainConfig(**{field: value})


class TestRunRecord:
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
    def test_command_with_a_line_break_stays_one_line(self, brk):
        record = tr.RunRecord(kind="pretrain", config_hash="h", command=f"pointpeft pretrain --out 'a{brk}b'")
        lines = record.to_text().splitlines()
        assert lines[3] == "command = pointpeft pretrain --out 'a b'"
        assert all(" = " in ln for ln in lines[1:])


class TestSchedule:
    def test_constant(self):
        config = tr.TrainConfig(lr_schedule="constant", learning_rate=0.2, epochs=10)
        assert tr.lr_at(config, 0) == tr.lr_at(config, 9) == 0.2

    def test_cosine_decays_from_full_lr(self):
        config = tr.TrainConfig(lr_schedule="cosine", learning_rate=1.0, epochs=10)
        assert tr.lr_at(config, 0) == pytest.approx(1.0)
        assert tr.lr_at(config, 5) == pytest.approx(0.5)
        assert tr.lr_at(config, 9) < 0.05


class TestConfusionMatrix:
    def test_perfect_predictions(self):
        cm = tr.ConfusionMatrix(3)
        labels = np.array([0, 1, 2, 1])
        cm.update(labels, labels)
        assert cm.metrics() == {"miou": 1.0, "macc": 1.0, "allacc": 1.0}

    def test_all_class_zero_predictions(self):
        cm = tr.ConfusionMatrix(2)
        cm.update(np.zeros(10, dtype=int), np.array([0] * 5 + [1] * 5))
        m = cm.metrics()
        assert m["allacc"] == pytest.approx(0.5)
        assert m["macc"] == pytest.approx(0.5)
        assert m["miou"] == pytest.approx(0.25)

    def test_absent_class_excluded_from_miou(self):
        cm = tr.ConfusionMatrix(3)
        cm.update(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0]))
        m = cm.metrics()
        # class 2 never appears on either side: averaged over classes 0 and 1
        iou0, iou1 = 2 / 3, 1 / 2
        assert m["miou"] == pytest.approx((iou0 + iou1) / 2)

    def test_allacc_is_trace_over_total(self):
        rng = np.random.default_rng(0)
        cm = tr.ConfusionMatrix(4)
        pred, labels = rng.integers(0, 4, 100), rng.integers(0, 4, 100)
        cm.update(pred, labels)
        assert cm.metrics()["allacc"] == pytest.approx(np.trace(cm.mat) / 100)

    def test_merge_is_summation(self):
        a, b = tr.ConfusionMatrix(2), tr.ConfusionMatrix(2)
        a.update(np.array([0]), np.array([1]))
        b.update(np.array([1]), np.array([1]))
        a.merge(b)
        assert a.mat.sum() == 2 and a.mat[1, 1] == 1


class TestDatasets:
    def test_generate_deterministic(self):
        a = tr.generate_dataset(tr.source_spec(), 3, 7)
        b = tr.generate_dataset(tr.source_spec(), 3, 7)
        for x, y in zip(a, b):
            assert x.coords.tobytes() == y.coords.tobytes()

    def test_write_and_load_round_trip(self, tmp_path):
        spec = tr.source_spec(points_per_class=8)
        names = tr.write_dataset(tmp_path / "ds", spec, 3, 5, command="gen")
        assert names == ["cloud_0000.txt", "cloud_0001.txt", "cloud_0002.txt"]
        clouds = tr.load_dataset(tmp_path / "ds")
        fresh = tr.generate_dataset(spec, 3, 5)
        assert len(clouds) == 3
        for got, want in zip(clouds, fresh):
            assert got.coords.tobytes() == want.coords.tobytes()

    def test_rerun_reproduces_cloud_files(self, tmp_path):
        spec = tr.source_spec(points_per_class=8)
        tr.write_dataset(tmp_path / "a", spec, 2, 5)
        tr.write_dataset(tmp_path / "b", spec, 2, 5)
        for name in ("cloud_0000.txt", "cloud_0001.txt", "spec.cfg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DataError):
            tr.load_dataset(tmp_path)

    def test_manifest_not_utf8_rejected(self, tmp_path):
        (tmp_path / "manifest.txt").write_bytes(b"cloud_0000.txt 1\n\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            tr.load_dataset(tmp_path)

    def test_domain_shift_recipe(self):
        src, tgt = tr.source_spec(), tr.target_spec()
        assert src.classes == ("floor", "wall", "box") and src.noise_sigma == 0.01
        assert tgt.classes == ("floor", "wall", "box", "sphere")
        assert tgt.labels == (0, 1, 2, 2) and tgt.num_classes == 3
        assert tgt.noise_sigma == 0.03 and tgt.scale == 1.5


class TestEvaluate:
    def test_matches_manual_confusion(self):
        bconfig = tiny_backbone()
        store = bb.init_backbone(bconfig, 1)
        clouds = tiny_dataset(2, seed=3)
        prepared = tr.prepare(clouds, bconfig)
        got = tr.evaluate(store, None, prepared, bconfig)
        cm = tr.ConfusionMatrix(3)
        for pc in prepared:
            out = bb.forward(pc.cloud, pc.part, None, None, store, bconfig)
            cm.update(out.logits.data.argmax(axis=1), pc.cloud.labels)
        assert got == cm.metrics()

    def test_requires_labels(self):
        bconfig = tiny_backbone()
        store = bb.init_backbone(bconfig, 1)
        cloud = geo.PointCloud(coords=np.zeros((2, 3)), feats=np.zeros((2, 6)))
        prepared = tr.prepare([cloud], bconfig)
        with pytest.raises(DataError):
            tr.evaluate(store, None, prepared, bconfig)

    def test_evaluate_leaves_flags_intact(self):
        bconfig = tiny_backbone()
        store = bb.init_backbone(bconfig, 1)
        tr.evaluate(store, None, tr.prepare(tiny_dataset(1), bconfig), bconfig)
        assert store.trainable_count == store.total_count

    def test_evaluate_keeps_accumulated_gradients(self):
        bconfig = tiny_backbone()
        store = bb.init_backbone(bconfig, 1)
        attachment = peft.attach(peft.PeftConfig(method="lora", rank=2), store, bconfig)
        prepared = tr.prepare(tiny_dataset(2), bconfig)
        pc = prepared[0]
        out = bb.forward(pc.cloud, pc.part, None, attachment, store, bconfig)
        ag.backward(tr.cross_entropy(out.logits, pc.cloud.labels))
        before = {n: t.grad.copy() for n, t in store.items() if t.grad is not None}
        assert sum(n.startswith("peft.") for n in before) == 2 * 4  # LoRA q/k down and up, 2 blocks
        tr.evaluate(store, attachment, prepared, bconfig)
        with tr.inference_mode(store):
            bb.forward(pc.cloud, pc.part, None, attachment, store, bconfig)
        after = {n: t.grad for n, t in store.items() if t.grad is not None}
        assert after.keys() == before.keys()
        for name, grad in before.items():
            assert after[name].tobytes() == grad.tobytes()


class TestPretrain:
    def test_bitwise_deterministic(self):
        bconfig = tiny_backbone()
        tconfig = tr.TrainConfig(epochs=2, seed=5, batch_size=2)
        clouds = tiny_dataset(3, seed=4)
        a, _ = tr.pretrain(clouds, bconfig, tconfig)
        b, _ = tr.pretrain(clouds, bconfig, tconfig)
        for name, t in a.items():
            assert t.data.tobytes() == b[name].data.tobytes()

    def test_single_scene_overfits(self):
        bconfig = tiny_backbone()
        tconfig = tr.TrainConfig(epochs=120, seed=6, batch_size=1, learning_rate=3e-3)
        clouds = tiny_dataset(1, seed=8, ppc=16)
        store, record = tr.pretrain(clouds, bconfig, tconfig)
        assert record.epochs[-1].allacc >= 0.99

    def test_loss_decreases(self):
        bconfig = tiny_backbone()
        tconfig = tr.TrainConfig(epochs=20, seed=7, batch_size=4)
        clouds = tiny_dataset(4, seed=9)
        _, record = tr.pretrain(clouds, bconfig, tconfig)
        losses = [e.loss for e in record.epochs]
        tail = losses[-max(1, len(losses) // 10) :]
        assert np.median(tail) < losses[0]

    def test_divergence_aborts(self):
        bconfig = tiny_backbone()
        tconfig = tr.TrainConfig(
            epochs=20, seed=8, learning_rate=1e9, optimizer="sgd_momentum",
            weight_decay=0.0, batch_size=1,
        )
        with pytest.raises(NumericError):
            tr.pretrain(tiny_dataset(2, seed=10), bconfig, tconfig)


def scores(e: tr.EpochStats):
    return e.miou, e.macc, e.allacc


class TestRunningMetrics:
    """Without an eval split, the epochs before the last count the training
    forwards' own predictions; passing the training clouds as an eval split
    evaluates every epoch instead, so that run is the oracle."""

    EPOCHS = 4

    def runs(self, batch_size):
        bconfig = tiny_backbone()
        tconfig = tr.TrainConfig(
            epochs=self.EPOCHS, seed=21, batch_size=batch_size, learning_rate=1e-2
        )
        clouds = tiny_dataset(3, seed=22)
        running = tr.pretrain(clouds, bconfig, tconfig)
        every = tr.pretrain(clouds, bconfig, tconfig, eval_clouds=clouds)
        return bconfig, tconfig, clouds, running, every

    def test_one_batch_epochs_score_the_weights_before_their_step(self):
        bconfig, tconfig, clouds, (_, running), (_, every) = self.runs(batch_size=4)
        init = tr.evaluate(
            bb.init_backbone(bconfig, tconfig.seed), None, tr.prepare(clouds, bconfig), bconfig
        )
        assert scores(running.epochs[0]) == (init["miou"], init["macc"], init["allacc"])
        for e in range(1, self.EPOCHS - 1):
            assert scores(running.epochs[e]) == scores(every.epochs[e - 1])
        assert len({scores(e) for e in every.epochs}) > 1  # the weights did move

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_losses_last_metrics_and_checkpoint_unchanged(self, batch_size, tmp_path):
        bconfig, _, _, (store_r, running), (store_e, every) = self.runs(batch_size)
        assert [e.loss for e in running.epochs] == [e.loss for e in every.epochs]
        assert running.epochs[-1] == every.epochs[-1]
        paths = tmp_path / "running.ckpt", tmp_path / "every.ckpt"
        for path, store in zip(paths, (store_r, store_e)):
            bb.save_backbone(path, store, bconfig)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_evaluate_runs_once_without_an_eval_split(self, monkeypatch):
        calls, evaluate = [], tr.evaluate

        def counted(*args, **kw):
            calls.append(1)
            return evaluate(*args, **kw)

        monkeypatch.setattr(tr, "evaluate", counted)
        bconfig, clouds = tiny_backbone(), tiny_dataset(3, seed=23)
        tconfig = tr.TrainConfig(epochs=self.EPOCHS, seed=24, batch_size=2)
        tr.pretrain(clouds, bconfig, tconfig)
        assert len(calls) == 1
        tr.pretrain(clouds, bconfig, tconfig, eval_clouds=clouds)
        assert len(calls) == 1 + self.EPOCHS
        tr.finetune(
            bb.init_backbone(bconfig, 25), bconfig, peft.PeftConfig(method="lora", rank=2),
            clouds, tconfig,
        )
        assert len(calls) == 2 + self.EPOCHS

    def test_record_says_where_the_metrics_come_from(self):
        *_, (_, running), (_, every) = self.runs(batch_size=2)
        assert "\nepoch_metrics = training forwards, before each step; " in running.to_text()
        assert "\nepoch_metrics = eval split, " in every.to_text()


class TestEvaluateOnce:
    """A caller that reads only the last epoch's score of a held-out split
    fine-tunes without it and calls `evaluate` once: the tuned store and the
    score are bitwise those of the run that evaluates the split every epoch,
    so no option to evaluate less often is needed."""

    @pytest.mark.parametrize("method", peft.METHODS)
    def test_equals_the_eval_split_runs_last_epoch(self, method):
        bconfig = tiny_backbone(blocks=4)
        backbone = bb.init_backbone(bconfig, 31)
        pconfig = peft.PeftConfig(method=method, rank=2, tokens=2)
        spec = tr.target_spec(points_per_class=12)
        clouds, held_out = tr.generate_dataset(spec, 6, 32), tr.generate_dataset(spec, 3, 33)
        tconfig = tr.TrainConfig(epochs=2, batch_size=4, seed=34, learning_rate=3e-3)
        every_store, _, every = tr.finetune(
            backbone, bconfig, pconfig, clouds, tconfig, eval_clouds=held_out
        )
        once_store, attachment, _ = tr.finetune(backbone, bconfig, pconfig, clouds, tconfig)
        prepared = tr.prepare(held_out, bconfig, need_neighbors=pconfig.has_spatial)
        once = tr.evaluate(once_store, attachment, prepared, bconfig)
        assert scores(every.epochs[-1]) == (once["miou"], once["macc"], once["allacc"])
        assert once_store.byte_snapshot() == every_store.byte_snapshot()


class TestFinetune:
    def make_pretrained(self):
        bconfig = tiny_backbone()
        store = bb.init_backbone(bconfig, 11)
        return bconfig, store

    def test_linear_changes_head_only(self):
        bconfig, store = self.make_pretrained()
        before = {n: t.data.tobytes() for n, t in store.items()}
        tuned, _, _ = tr.finetune(
            store, bconfig, peft.PeftConfig(method="linear"),
            tiny_dataset(2, seed=12), tr.TrainConfig(epochs=2, seed=1),
        )
        changed = {n for n, blob in before.items() if tuned[n].data.tobytes() != blob}
        assert changed == {"head.weight", "head.bias"}
        assert store["head.weight"].data.tobytes() == before["head.weight"]  # input untouched

    @pytest.mark.parametrize("method", ["adapter", "lora", "prompt", "gem"])
    def test_backbone_frozen_through_training(self, method):
        bconfig, store = self.make_pretrained()
        before = store.byte_snapshot("backbone.")
        tuned, _, _ = tr.finetune(
            store, bconfig, peft.PeftConfig(method=method, rank=2, tokens=2),
            tiny_dataset(2, seed=13), tr.TrainConfig(epochs=2, seed=2),
        )
        for name, blob in before.items():
            assert tuned[name].data.tobytes() == blob

    def test_bitfit_changes_exactly_bias_set(self):
        bconfig, store = self.make_pretrained()
        before = store.byte_snapshot("backbone.")
        tuned, _, _ = tr.finetune(
            store, bconfig, peft.PeftConfig(method="bitfit"),
            tiny_dataset(2, seed=14), tr.TrainConfig(epochs=3, seed=3),
        )
        changed = {n for n, blob in before.items() if tuned[n].data.tobytes() != blob}
        expect = {
            n for n in before if n.endswith(".bias") or n.endswith(".shift")
        }
        assert changed == expect

    @staticmethod
    def nudge_in_step(monkeypatch, name):
        """Make every optimizer step also move `name` behind the freeze flags."""
        step = tr.step

        def nudged(store, state, lr=None):
            step(store, state, lr)
            store[name].data[...] += 1e-3

        monkeypatch.setattr(tr, "step", nudged)

    @pytest.mark.parametrize("method", ["lora", "bitfit"])
    def test_freeze_check_names_a_moved_frozen_weight(self, method, monkeypatch):
        """The closing comparison reads bytes, not flags: a frozen weight
        that moved fails the fine-tune, named."""
        self.nudge_in_step(monkeypatch, "backbone.block1.ffn.fc2.weight")
        bconfig, store = self.make_pretrained()
        with pytest.raises(FreezeViolation, match=r"\['backbone\.block1\.ffn\.fc2\.weight'\]"):
            tr.finetune(
                store, bconfig, peft.PeftConfig(method=method, rank=2),
                tiny_dataset(2, seed=18), tr.TrainConfig(epochs=1, seed=5),
            )

    def test_freeze_check_lets_bitfit_move_a_backbone_bias(self, monkeypatch):
        name = "backbone.block1.ffn.fc2.bias"
        self.nudge_in_step(monkeypatch, name)
        bconfig, store = self.make_pretrained()
        tuned, _, _ = tr.finetune(
            store, bconfig, peft.PeftConfig(method="bitfit"),
            tiny_dataset(2, seed=18), tr.TrainConfig(epochs=1, seed=5),
        )
        assert tuned[name].data.tobytes() != store[name].data.tobytes()

    def test_limited_data_marks_subset_seed(self):
        bconfig, store = self.make_pretrained()
        _, _, record = tr.finetune(
            store, bconfig, peft.PeftConfig(method="linear"),
            tiny_dataset(10, seed=15), tr.TrainConfig(epochs=1, seed=4),
            data_fraction=0.1,
        )
        assert record.subset_seed is not None
        assert "subset_seed" in record.to_text()

    def test_cloud_grads_flags_gradient_on_frozen_parameter(self):
        """A frozen tensor whose flag was set behind the store's back takes a
        gradient; the per-cloud work raises, as `step`'s check would."""
        bconfig, store = self.make_pretrained()
        attachment = peft.attach(peft.PeftConfig(method="lora", rank=2), store, bconfig)
        (pc,) = tr.prepare(tiny_dataset(1, seed=17), bconfig)
        store["backbone.ln_out.scale"].requires_grad = True
        flat = np.empty(store.trainable_count)
        with pytest.raises(FreezeViolation, match="backbone.ln_out.scale"):
            tr._cloud_grads(store, attachment, pc, None, bconfig, 1.0, 0, None, flat)

    def test_bad_fraction_rejected(self):
        bconfig, store = self.make_pretrained()
        with pytest.raises(UsageError):
            tr.finetune(
                store, bconfig, peft.PeftConfig(method="linear"),
                tiny_dataset(2, seed=16), tr.TrainConfig(epochs=1), data_fraction=0.0,
            )


class TestRunRecord:
    def test_text_and_csv_formats(self):
        record = tr.RunRecord(kind="finetune-gem", config_hash="abc123")
        record.epochs.append(tr.EpochStats(0, 1.5, 0.3, 0.4, 0.5))
        record.epochs.append(tr.EpochStats(1, 1.2, 0.35, 0.45, 0.55))
        text = record.to_text()
        assert text.startswith("run-record\n")
        assert "config_hash = abc123" in text
        csv = record.metrics_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,loss,miou,macc,allacc"
        assert lines[1].startswith("0,1.5,")
        assert len(lines) == 3

    def test_metric_values_in_unit_interval(self):
        bconfig = tiny_backbone()
        _, record = tr.pretrain(
            tiny_dataset(2, seed=17), bconfig, tr.TrainConfig(epochs=2, seed=5)
        )
        for e in record.epochs:
            for v in (e.miou, e.macc, e.allacc):
                assert 0.0 <= v <= 1.0

    def test_cross_entropy_reexported(self):
        loss = tr.cross_entropy(ag.Tensor(np.zeros((2, 4))), np.array([1, 2]))
        assert loss.item() == pytest.approx(np.log(4.0))
