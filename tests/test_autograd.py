import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpeft import autograd as ag
from pointpeft.errors import ContractError, DataError, NumericError, ShapeError


def fd_check(f, tensors, h=1e-5, tol=1e-4):
    """Central-difference oracle for d(sum f)/d(leaf), independent of backward."""
    loss = ag.tsum(f())
    for t in tensors:
        t.grad = None
    ag.backward(loss)
    for t in tensors:
        ana = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(ag.tsum(f()).item())
            flat[i] = orig - h
            lm = float(ag.tsum(f()).item())
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
        ag.backward(ag.tsum(out))
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-15)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-15)

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 2, 3, 4), rand(rng, 2, 4, 3)
        fd_check(lambda: ag.matmul(a, b), [a, b])

    def test_batched_against_shared_rhs(self):
        rng = np.random.default_rng(2)
        a, b = rand(rng, 3, 4, 5), rand(rng, 5, 2)
        fd_check(lambda: ag.matmul(a, b), [a, b])


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
        ag.backward(ag.tsum(ag.relu(x)))
        assert x.grad[0] == 1.0

    def test_gate_at_zero_is_zero(self):
        x = ag.Tensor([0.0], requires_grad=True)
        ag.backward(ag.tsum(ag.relu(x)))
        assert x.grad[0] == 0.0


class TestElementwiseGradients:
    """Every differentiable op vs central differences, inputs in [-1, 1]."""

    def test_add_sub_mul(self):
        rng = np.random.default_rng(3)
        a, b = rand(rng, 4, 3), rand(rng, 4, 3)
        bias = rand(rng, 3)
        fd_check(lambda: ag.add(a, b), [a, b])
        fd_check(lambda: ag.add(a, bias), [a, bias])  # broadcast bias row
        fd_check(lambda: ag.sub(a, b), [a, b])
        fd_check(lambda: ag.mul(a, b), [a, b])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(5)
        x = ag.Tensor(rng.uniform(-1.0, 1.0, (5, 5)), requires_grad=True)
        # finite differences are invalid within 2h of the kink at 0
        x.data[np.abs(x.data) < 1e-3] = 0.5
        fd_check(lambda: ag.relu(x), [x])

    def test_reductions(self):
        rng = np.random.default_rng(6)
        a = rand(rng, 3, 4)
        fd_check(lambda: ag.tsum(a), [a])
        fd_check(lambda: ag.tsum(a, axis=1, keepdims=True), [a])

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
        idx = np.array([0, 2, 2, -1, 4, 1])
        w = ag.Tensor(rng.uniform(-1, 1, (6, 3)))
        fd_check(lambda: ag.mul(ag.gather_rows(a, idx), w), [a])
        groups = np.array([0, 1, 0, 2, 2])
        w2 = ag.Tensor(rng.uniform(-1, 1, (4, 3)))
        fd_check(lambda: ag.mul(ag.group_mean(a, groups, 4), w2), [a])


class TestGatherRows:
    def test_negative_index_gives_zero_row(self):
        a = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ag.gather_rows(a, np.array([1, -1, 0]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [0.0, 0.0], [1.0, 2.0]])

    def test_repeated_rows_accumulate_grad(self):
        a = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        ag.backward(ag.tsum(ag.gather_rows(a, np.array([0, 0, 1]))))
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0], [1.0, 1.0]])


class TestGroupMean:
    def test_means_by_group(self):
        a = ag.Tensor([[2.0], [4.0], [6.0]])
        out = ag.group_mean(a, np.array([0, 0, 1]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [6.0], [0.0]])


class TestBackwardContract:
    def test_sum_of_trainable_gives_ones(self):
        w = ag.Tensor(np.zeros((2, 2)), requires_grad=True)
        ag.backward(ag.tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_frozen_leaf_gets_no_grad(self):
        store = ag.ParamStore()
        w = store.add("w", np.ones((2, 2)), frozen=True)
        ag.backward(ag.tsum(ag.mul(w, 2.0)))
        assert w.grad is None

    def test_non_scalar_loss_rejected(self):
        w = ag.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            ag.backward(ag.mul(w, 1.0))

    def test_accumulation_until_zeroed(self):
        w = ag.Tensor(np.ones(2), requires_grad=True)
        ag.backward(ag.tsum(w))
        ag.backward(ag.tsum(w))
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        w.grad = None
        ag.backward(ag.tsum(w))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])

    def test_no_grad_builds_no_graph_and_keeps_leaves(self):
        w = ag.Tensor(np.ones(2), requires_grad=True)
        ag.backward(ag.tsum(w))
        with pytest.raises(ShapeError), ag.no_grad():
            out = ag.tsum(ag.mul(w, 3.0))
            assert not out.requires_grad and out._parents == ()
            ag.backward(out)  # a constant: nothing reaches w
            w.item()
        assert w.requires_grad
        np.testing.assert_array_equal(w.grad, [1.0, 1.0])
        assert ag.tsum(w).requires_grad  # the switch is back on after the raise

    def test_matmul_loss_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        fd_check(lambda: ag.matmul(a, b), [a, b], tol=1e-6)

    def test_graph_determinism(self):
        rng = np.random.default_rng(12)
        a, b = rand(rng, 4, 4), rand(rng, 4, 4)

        def run():
            a.grad = b.grad = None
            loss = ag.tsum(ag.relu(ag.matmul(a, b)))
            ag.backward(loss)
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()


class TestCheckGradients:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(13)
        store = ag.ParamStore()
        w = store.add("w", rng.uniform(-1, 1, (3, 2)))
        x = ag.Tensor(rng.uniform(-1, 1, (4, 3)))
        err = ag.check_gradients(lambda: ag.tsum(ag.matmul(x, w)), store)
        assert err < 1e-9

    def test_frozen_excluded(self):
        rng = np.random.default_rng(14)
        store = ag.ParamStore()
        w = store.add("w", rng.uniform(-1, 1, (2, 2)))
        store.add("frozen", rng.uniform(-1, 1, (2, 2)), frozen=True)
        err = ag.check_gradients(lambda: ag.tsum(ag.matmul(w, store["frozen"])), store)
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

    def test_config_hash_is_order_independent(self):
        assert ag.config_hash({"a": 1, "b": 2}) == ag.config_hash({"b": 2, "a": 1})
        assert ag.config_hash({"a": 1}) != ag.config_hash({"a": 2})
