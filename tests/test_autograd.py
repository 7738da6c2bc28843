import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr
from pointpeft.errors import ContractError, DataError, NumericError, ShapeError


def tsum(a, axis=None, keepdims: bool = False) -> ag.Tensor:
    """Sum of the entries, or along `axis`, as a graph node: the tests' loss reducer."""
    a = ag._wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        ag._accum(a, np.broadcast_to(g, a.data.shape))

    return ag._node(data, (a,), bwd)


def fd_check(f, tensors, h=1e-5, tol=1e-4):
    """Central-difference oracle for d(sum f)/d(leaf), independent of backward."""
    loss = tsum(f())
    for t in tensors:
        t.grad = None
    ag.backward(loss)
    for t in tensors:
        ana = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(tsum(f()).item())
            flat[i] = orig - h
            lm = float(tsum(f()).item())
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            assert abs(ana.ravel()[i] - num) / max(1.0, abs(num)) < tol


def rand(rng, *shape):
    return ag.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        m = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ag.matmul(ag.Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_hand_product(self):
        out = ag.matmul(ag.Tensor([[1.0, 2.0], [3.0, 4.0]]), ag.Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_zeros_annihilate(self):
        out = ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((4, 2))))

    def test_backward_matches_transpose_rule(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        out = ag.matmul(a, b)
        ag.backward(tsum(out))
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-15)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-15)

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (4, 2)), ((3, 4), (2, 4, 3)), ((4,), (4, 2))])
    def test_only_matrices(self, shapes):
        a, b = (ag.Tensor(np.zeros(shape)) for shape in shapes)
        with pytest.raises(ShapeError):
            ag.matmul(a, b)


class TestSoftmax:
    """The softmax helper shared by both attention ops."""

    def test_symmetric_row(self):
        out = ag.softmax(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_huge_logit_no_overflow(self):
        out = ag.softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_log_integers(self):
        out = ag.softmax(np.array([[np.log(1.0), np.log(2.0), np.log(3.0)]]))
        np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            ag.softmax(np.array([[np.nan, 0.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-100, 100))
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        base = ag.softmax(np.array([row]))
        shifted = ag.softmax(np.array([[v + shift for v in row]]))
        assert abs(base.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(
            ag.relu(ag.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0]
        )
        np.testing.assert_array_equal(ag.relu(ag.Tensor([-3.0, -0.5])).data, [0.0, 0.0])

    def test_gradient_in_linear_region(self):
        x = ag.Tensor([3.0], requires_grad=True)
        ag.backward(tsum(ag.relu(x)))
        assert x.grad[0] == 1.0

    def test_gate_at_zero_is_zero(self):
        x = ag.Tensor([0.0], requires_grad=True)
        ag.backward(tsum(ag.relu(x)))
        assert x.grad[0] == 0.0


class TestElementwiseGradients:
    """Every differentiable op vs central differences, inputs in [-1, 1]."""

    def test_add_sub_mul(self):
        rng = np.random.default_rng(3)
        a, b = rand(rng, 4, 3), rand(rng, 4, 3)
        fd_check(lambda: ag.add(a, b), [a, b])
        fd_check(lambda: ag.mul(a, b), [a, b])

    @pytest.mark.parametrize("op", [ag.add, ag.mul])
    @pytest.mark.parametrize("shapes", [((4, 3), (3,)), ((4, 3), (1, 3)), ((2, 2), (1,))])
    def test_unequal_shapes_rejected(self, op, shapes):
        a, b = (ag.Tensor(np.ones(shape), requires_grad=True) for shape in shapes)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ShapeError, match=r"one shape"):
                op(x, y)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(5)
        x = ag.Tensor(rng.uniform(-1.0, 1.0, (5, 5)), requires_grad=True)
        # finite differences are invalid within 2h of the kink at 0
        x.data[np.abs(x.data) < 1e-3] = 0.5
        fd_check(lambda: ag.relu(x), [x])

    def test_reductions(self):
        rng = np.random.default_rng(6)
        a = rand(rng, 3, 4)
        fd_check(lambda: tsum(a), [a])
        fd_check(lambda: tsum(a, axis=1, keepdims=True), [a])

    def test_softmax_gradient(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-1, 1, (3, 5))
        w = rng.uniform(-1, 1, (3, 5))
        analytic = ag.softmax_grad(ag.softmax(z), w)
        h = 1e-6
        for i in np.ndindex(z.shape):
            bump = np.zeros_like(z)
            bump[i] = h
            num = ((ag.softmax(z + bump) - ag.softmax(z - bump)) * w).sum() / (2 * h)
            assert abs(analytic[i] - num) < 1e-8

    def test_gather_and_group_ops(self):
        rng = np.random.default_rng(9)
        a = rand(rng, 5, 3)
        idx = np.array([0, 2, 2, 4, 1])
        w = ag.Tensor(rng.uniform(-1, 1, (5, 3)))
        fd_check(lambda: ag.mul(ag.gather_rows(a, idx, lambda r: ag.flat_rows(idx, r)), w), [a])


class TestGatherRows:
    def test_repeated_rows_accumulate_grad(self):
        a = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        idx = np.array([0, 0, 1])
        ag.backward(tsum(ag.gather_rows(a, idx, lambda r: ag.flat_rows(idx, r))))
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0], [1.0, 1.0]])

    @pytest.mark.parametrize("width", [8, 32])
    def test_scatter_bytes_equal_add_at(self, width):
        """`scatter_rows` and `gather_rows`'s backward give `np.add.at`'s
        bytes: -0.0 rows, rows that cancel exactly, and voxels that sum only
        -0.0 included."""
        rng = np.random.default_rng(width)
        count, n = 117, 144
        index = np.concatenate([np.arange(count), rng.integers(0, count - 2, n - count)])
        rng.shuffle(index)
        index[index >= count - 2] = count - 2  # the last voxel stays empty
        rows = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        rows[rng.random((n, width)) < 0.1] = -0.0
        rows[index == 0] = -0.0  # a voxel of -0.0 alone sums to +0.0
        twice = np.flatnonzero(np.bincount(index) >= 2)
        for v in twice[1:20]:
            a, b = np.flatnonzero(index == v)[:2]
            rows[b] = -rows[a]  # exact cancellation, then later rows
        want = np.zeros((count, width))
        np.add.at(want, index, rows)
        flat = ag.flat_rows(index, width)
        assert ag.scatter_rows(rows, flat, count).tobytes() == want.tobytes()
        a = ag.Tensor(np.zeros((count, width)), requires_grad=True)
        ag.gather_rows(a, index, lambda w: flat)._backward(rows)
        assert a.grad.tobytes() == want.tobytes()


class TestBackwardContract:
    def test_sum_of_trainable_gives_ones(self):
        w = ag.Tensor(np.zeros((2, 2)), requires_grad=True)
        ag.backward(tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_frozen_leaf_gets_no_grad(self):
        store = ag.ParamStore()
        w = store.add("w", np.ones((2, 2)), frozen=True)
        ag.backward(tsum(ag.mul(w, np.full((2, 2), 2.0))))
        assert w.grad is None

    def test_non_scalar_loss_rejected(self):
        w = ag.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            ag.backward(ag.mul(w, np.ones(3)))

    def test_accumulation_until_zeroed(self):
        w = ag.Tensor(np.ones(2), requires_grad=True)
        ag.backward(tsum(w))
        ag.backward(tsum(w))
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        w.grad = None
        ag.backward(tsum(w))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])

    def test_no_grad_builds_no_graph_and_keeps_leaves(self):
        w = ag.Tensor(np.ones(2), requires_grad=True)
        ag.backward(tsum(w))
        with pytest.raises(ShapeError), ag.no_grad():
            out = tsum(ag.mul(w, np.full(2, 3.0)))
            assert not out.requires_grad and out._parents == ()
            ag.backward(out)  # a constant: nothing reaches w
            w.item()
        assert w.requires_grad
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])
        assert tsum(w).requires_grad  # the switch is back on after the raise

    def test_matmul_loss_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        fd_check(lambda: ag.matmul(a, b), [a, b], tol=1e-6)

    def test_graph_determinism(self):
        rng = np.random.default_rng(12)
        a, b = rand(rng, 4, 4), rand(rng, 4, 4)

        def run():
            a.grad = b.grad = None
            loss = tsum(ag.relu(ag.matmul(a, b)))
            ag.backward(loss)
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()

    def test_live_graphs_do_not_mix(self):
        """Two graphs built interleaved over one shared leaf: each backward runs
        only its own nodes, and the leaf accumulates both."""
        rng = np.random.default_rng(14)
        x, w = rand(rng, 3, 3), rand(rng, 3, 3)
        first = ag.mul(x, np.full((3, 3), 3.0))
        other = ag.matmul(x, w)  # belongs to the second graph, built in between
        loss_a = tsum(ag.add(first, ag.mul(x, x)))
        loss_b = tsum(ag.relu(other))
        ag.backward(loss_a)
        np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data, rtol=0, atol=1e-15)
        assert w.grad is None and other.grad is None
        ag.backward(loss_b)
        gate = (other.data > 0).astype(float)
        np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data + gate @ w.data.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w.grad, x.data.T @ gate, rtol=0, atol=1e-15)

    def test_shared_input_gets_every_contribution(self):
        """A leaf and an intermediate each feed several later nodes."""
        rng = np.random.default_rng(15)
        x, w = rand(rng, 2, 3), rand(rng, 3, 3)
        h = ag.matmul(x, w)
        two = np.full((2, 3), 2.0)
        y = ag.add(ag.mul(h, two), ag.matmul(h, w))
        loss = tsum(ag.add(ag.add(y, ag.mul(x, x)), x))
        ag.backward(loss)
        ones = np.ones((2, 3))
        gh = 2.0 * ones + ones @ w.data.T
        np.testing.assert_allclose(x.grad, gh @ w.data.T + 2.0 * x.data + 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w.grad, x.data.T @ gh + h.data.T @ ones, rtol=0, atol=1e-14)
        fd_check(lambda: ag.add(ag.add(ag.mul(ag.matmul(x, w), two), ag.matmul(ag.matmul(x, w), w)), ag.mul(x, x)), [x, w])


class TestCheckGradients:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(13)
        store = ag.ParamStore()
        w = store.add("w", rng.uniform(-1, 1, (3, 2)))
        x = ag.Tensor(rng.uniform(-1, 1, (4, 3)))
        err = ag.check_gradients(lambda: tsum(ag.matmul(x, w)), store)
        assert err < 1e-9

    def test_frozen_excluded(self):
        rng = np.random.default_rng(14)
        store = ag.ParamStore()
        w = store.add("w", rng.uniform(-1, 1, (2, 2)))
        store.add("frozen", rng.uniform(-1, 1, (2, 2)), frozen=True)
        err = ag.check_gradients(lambda: tsum(ag.matmul(w, store["frozen"])), store)
        assert err < 1e-9

    def test_nonlinear_within_tolerance(self):
        rng = np.random.default_rng(15)
        store = ag.ParamStore()
        w1 = store.add("w1", rng.uniform(-1, 1, (3, 4)))
        w2 = store.add("w2", rng.uniform(-1, 1, (4, 2)))
        x = ag.Tensor(rng.uniform(-1, 1, (5, 3)))
        labels = np.array([0, 1, 1, 0, 1])

        def f():
            return ag.cross_entropy(ag.matmul(ag.relu(ag.matmul(x, w1)), w2), labels)

        assert ag.check_gradients(f, store) < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ag.cross_entropy(ag.Tensor(np.zeros((5, 4))), np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.full((3, 4), -100.0)
        logits[np.arange(3), [1, 2, 3]] = 100.0
        loss = ag.cross_entropy(ag.Tensor(logits), np.array([1, 2, 3]))
        assert loss.item() < 1e-10

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            ag.cross_entropy(ag.Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(16)
        logits = ag.Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        labels = rng.integers(0, 4, 6)

        def f():
            logits.grad = None
            return ag.cross_entropy(logits, labels)

        loss = f()
        ag.backward(loss)
        ana = logits.grad.copy()
        h = 1e-6
        flat = logits.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = f().item()
            flat[i] = orig - h
            lm = f().item()
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            assert abs(ana.ravel()[i] - num) / max(1.0, abs(num)) < 1e-6


class TestParamStore:
    def test_unique_names(self):
        store = ag.ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ContractError):
            store.add("a", np.zeros(2))

    def test_counts(self):
        store = ag.ParamStore()
        store.add("a", np.zeros((2, 3)))
        store.add("b", np.zeros(4), frozen=True)
        assert store.total_count == 10
        assert store.trainable_count == 6

    def test_freeze_toggles_requires_grad(self):
        store = ag.ParamStore()
        t = store.add("a", np.zeros(2))
        assert t.requires_grad
        store.set_frozen("a", True)
        assert not t.requires_grad

    def test_clone_is_independent(self):
        store = ag.ParamStore()
        store.add("a", np.ones(2))
        other = store.clone()
        other["a"].data[0] = 7.0
        assert store["a"].data[0] == 1.0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(17)
        store = ag.ParamStore()
        store.add("backbone.w", rng.standard_normal((3, 4)) * 1e-3)
        store.add("head.bias", rng.standard_normal(5), frozen=True)
        path = tmp_path / "model.ckpt"
        ag.save_checkpoint(path, store, {"d": 4, "blocks": 2}, command="test")
        config, loaded = ag.load_checkpoint(path)
        assert config == {"d": "4", "blocks": "2"}
        assert loaded.names() == store.names()
        for name, t in store.items():
            assert loaded[name].data.tobytes() == t.data.tobytes()
            assert loaded.frozen(name) == store.frozen(name)

    def test_layout_validation(self, tmp_path):
        store = ag.ParamStore()
        store.add("w", np.zeros((2, 2)))
        path = tmp_path / "m.ckpt"
        ag.save_checkpoint(path, store)
        _, loaded = ag.load_checkpoint(path)
        with pytest.raises(ContractError):
            ag.validate_store_layout(loaded, {"w": (2, 2), "v": (3,)})
        with pytest.raises(ContractError):
            ag.validate_store_layout(loaded, {"w": (4, 1)})
        ag.validate_store_layout(loaded, {"w": (2, 2)})

    def test_saved_bytes_are_pinned(self, tmp_path):
        """Value lines are the little-endian binary64 bytes in lowercase hex."""
        store = ag.ParamStore()
        store.add("edge", np.array([-0.0, 5e-324, np.inf, -2.5]))
        store.add("empty", np.zeros((2, 0)), frozen=True)
        store.add("scalar", np.array(1.5))
        path = tmp_path / "m.ckpt"
        ag.save_checkpoint(path, store, {"d": 2}, command="pointpeft pretrain\n--out m.ckpt")
        assert path.read_bytes() == (
            b"# cmd: pointpeft pretrain --out m.ckpt\n"
            b"# hash: b5fcb25063186bff92bf279c748810fe3eee1b39f7a77da300dd3661abf708ab\n"
            b"[config]\n"
            b"d=2\n"
            b"[params]\n"
            b"edge\t4\t0\n"
            b"0000000000000080" b"0100000000000000" b"000000000000f07f" b"00000000000004c0\n"
            b"empty\t2,0\t1\n"
            b"\n"
            b"scalar\t1\t0\n"  # Tensor data is at least 1-d, so a 0-d value is saved as shape 1
            b"000000000000f83f\n"
        )
        _, loaded = ag.load_checkpoint(path)
        assert loaded.names() == store.names()
        for name, t in store.items():
            assert loaded[name].shape == t.shape
            assert loaded[name].data.tobytes() == t.data.tobytes()
            assert loaded[name].data.flags.writeable

    # 1.0 and 2.0 as hex value lines: each record fails on its own field
    @pytest.mark.parametrize(
        "record, reason",
        [
            ("w\t2,x\t0\n000000000000f03f0000000000000040\n", "invalid literal for int"),
            ("w\t2\t0\n", "index out of range"),
            ("w\t2\t0\n000000000000f03f000000000000004g\n", "hex digits"),
            ("w\t2\tyes\n000000000000f03f0000000000000040\n", "invalid literal for int"),
            ("w\t-1,-2\t0\n000000000000f03f0000000000000040\n", "negative shape"),
        ],
        ids=["shape", "truncated", "value", "frozen-flag", "negative-shape"],
    )
    def test_malformed_record_raises_data_error(self, tmp_path, record, reason):
        path = tmp_path / "m.ckpt"
        path.write_text("[config]\nd=2\n[params]\n" + record)
        with pytest.raises(DataError, match=reason):
            ag.load_checkpoint(path)

    def test_config_hash_is_order_independent(self):
        assert ag.config_hash({"a": 1, "b": 2}) == ag.config_hash({"b": 2, "a": 1})
        assert ag.config_hash({"a": 1}) != ag.config_hash({"a": 2})


class TestGradientsAreNeverWritten:
    """`_accum` keeps a first gradient without copying it, which is safe only
    while no backward writes into the gradient it is given and no code
    writes into a stored `grad`.  Here every gradient a node is given and
    every stored `grad` is read-only, so any such write raises."""

    @pytest.fixture(autouse=True)
    def read_only_grads(self, monkeypatch):
        accum, node = ag._accum, ag._node

        def read_only_accum(t, g):
            accum(t, g)
            if t.grad is not None:
                t.grad.flags.writeable = False

        def read_only_node(data, parents, backward_fn):
            def bwd(g):
                g.flags.writeable = False
                backward_fn(g)

            return node(data, parents, bwd)

        monkeypatch.setattr(ag, "_accum", read_only_accum)
        monkeypatch.setattr(ag, "_node", read_only_node)
        monkeypatch.setattr(tr, "_split_allowed", lambda attachment, bconfig: False)

    BCONFIG = dict(
        d=16, blocks=4, patch_size=8, heads=2, ffn_mult=2, num_classes=3,
        in_channels=6, voxel_size=0.5, stages=((0, 2), (2, 4)),
    )
    TCONFIG = dict(epochs=1, batch_size=2, learning_rate=1e-2)

    def clouds(self):
        return tr.generate_dataset(tr.target_spec(points_per_class=12), 2, seed=3)

    def test_plain_backbone_pass(self):
        bconfig = bb.BackboneConfig(**self.BCONFIG)
        store = bb.init_backbone(bconfig, 0)
        cloud = self.clouds()[0]
        (pc,) = tr.prepare([cloud], bconfig)
        out = bb.forward(pc.cloud, pc.part, pc.nbr, None, store, bconfig)
        ag.backward(ag.cross_entropy(out.logits, cloud.labels))
        assert all(t.grad is not None and not t.grad.flags.writeable for _, t in store.items())

    def test_pretrain(self):
        tr.pretrain(self.clouds(), bb.BackboneConfig(**self.BCONFIG), tr.TrainConfig(**self.TCONFIG))

    @pytest.mark.parametrize("method", pf.METHODS)
    def test_finetune(self, method):
        bconfig = bb.BackboneConfig(**self.BCONFIG)
        pconfig = pf.PeftConfig(method=method, rank=2, tokens=2, sharing="per_stage")
        tr.finetune(
            bb.init_backbone(bconfig, 0), bconfig, pconfig, self.clouds(), tr.TrainConfig(**self.TCONFIG)
        )
