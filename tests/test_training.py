import numpy as np
import pytest

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import geometry as geo
from pointpeft import peft
from pointpeft import training as tr
from pointpeft.errors import DataError, FreezeViolation, NumericError, UsageError


def tiny_backbone(**kw):
    base = dict(
        d=16, blocks=2, patch_size=8, heads=2, ffn_mult=2,
        num_classes=3, in_channels=6, voxel_size=0.5,
    )
    base.update(kw)
    return bb.BackboneConfig(**base)


def tiny_dataset(count=4, seed=0, ppc=16):
    return tr.generate_dataset(tr.source_spec(points_per_class=ppc), count, seed)


class TestStep:
    def test_sgd_one_step(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([1.0]))
        w.grad = np.array([1.0])
        config = tr.TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, weight_decay=0.0)
        tr.step(store, tr.OptState(config))
        assert w.data[0] == pytest.approx(0.9, abs=1e-15)

    def test_adamw_first_step_magnitude(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([0.5]))
        w.grad = np.array([3.7])
        config = tr.TrainConfig(optimizer="adamw", learning_rate=1e-3, weight_decay=0.0)
        tr.step(store, tr.OptState(config))
        assert abs(w.data[0] - 0.5) == pytest.approx(1e-3, rel=1e-6)

    def test_frozen_param_with_injected_grad_flagged(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([1.0]), frozen=True)
        w.grad = np.array([1.0])
        state = tr.OptState(tr.TrainConfig())
        with pytest.raises(FreezeViolation):
            tr.step(store, state)
        assert w.data[0] == 1.0

    def test_non_strict_ignores_injected_grad(self):
        store = ag.ParamStore()
        w = store.add("w", np.array([1.0]), frozen=True)
        w.grad = np.array([1.0])
        tr.step(store, tr.OptState(tr.TrainConfig(), strict=False))
        assert w.data[0] == 1.0

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
        tr.step(store, tr.OptState(config))
        assert w.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-12)


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

    def test_limited_data_marks_subset_seed(self):
        bconfig, store = self.make_pretrained()
        _, _, record = tr.finetune(
            store, bconfig, peft.PeftConfig(method="linear"),
            tiny_dataset(10, seed=15), tr.TrainConfig(epochs=1, seed=4),
            data_fraction=0.1,
        )
        assert record.subset_seed is not None
        assert "subset_seed" in record.to_text()

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
