"""Fused single-node ops against central differences and plain-numpy oracles.

Each oracle is the multi-step composition the fused op replaces, written
out in numpy: the seven-step layer norm, the two-layer perceptron, the
projections plus split-heads patch attention chain, the two-matmul latent
attention, the 27-term stencil loop and its backward's scatter.  The
short-row kernels (softmax, its gradient and the layer norm's row means)
are checked against the per-row numpy reductions they replace.
"""

import math

import numpy as np
import pytest

from pointpeft import autograd as ag
from pointpeft import geometry as geo
from pointpeft.errors import NumericError, ShapeError

from test_autograd import fd_check, rand, tsum


def probe(rng, *shape):
    """A fixed random weighting, so the summed loss sees every output entry."""
    return ag.Tensor(rng.uniform(-1, 1, shape))


# ---------------------------------------------------------------------------
# oracles


def layer_norm_oracle(x, scale, shift, eps):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * scale + shift


def softmax_oracle(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def patch_attention_oracle(q, k, v, index, heads, pk=None, pv=None):
    """Gather by slot, split heads, prepend prompts, mask, softmax, scatter back."""
    n, d = q.shape
    patches, p = index.shape
    dh = d // heads
    valid = index.ravel() >= 0

    def split(a):
        rows = np.zeros((patches * p, d))
        rows[valid] = a[index.ravel()[valid]]
        rows = rows.reshape(patches, p, heads, dh).transpose(0, 2, 1, 3)
        return rows.reshape(patches * heads, p, dh)

    qp, kp, vp = split(q), split(k), split(v)
    m = 0
    if pk is not None:
        m = pk.shape[0]

        def per_patch(t):
            t = t.reshape(m, heads, dh).transpose(1, 0, 2)
            return np.tile(t, (patches, 1, 1))

        kp = np.concatenate([per_patch(pk), kp], axis=1)
        vp = np.concatenate([per_patch(pv), vp], axis=1)
    logits = qp @ kp.transpose(0, 2, 1) / math.sqrt(dh)
    mask = np.zeros((patches, 1, m + p))
    mask[:, 0, m:][index < 0] = ag.MASK_LOGIT
    weights = softmax_oracle(logits + np.repeat(mask, heads, axis=0))
    out = (weights @ vp).reshape(patches, heads, p, dh).transpose(0, 2, 1, 3)
    out = out.reshape(patches * p, d)
    result = np.empty((n, d))
    result[index.ravel()[valid]] = out[valid]
    return result, weights


def attention_oracle(x, weights, index, heads, lora=None, prompts=None):
    """Each projection on its own, LoRA deltas added, then the split-heads chain."""
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    if lora is not None:
        q_down, q_up, k_down, k_up = lora
        q = q + (x @ q_down) @ q_up
        k = k + (x @ k_down) @ k_up
    pk, pv = prompts if prompts is not None else (None, None)
    mixed, attn = patch_attention_oracle(q, k, v, index, heads, pk, pv)
    return mixed @ wo + bo, attn


def mlp_oracle(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def stencil_oracle(vox, neighbors, kernels):
    acc = np.zeros((vox.shape[0], kernels[0].shape[1]))
    for s, kern in enumerate(kernels):
        rows = np.where((neighbors[:, s] >= 0)[:, None], vox[neighbors[:, s]], 0.0)
        acc = acc + rows @ kern
    return acc


def stencil_separate_kernels(vox, neighbors, kernels, g):
    """The stencil's forward, vox gradient and kernel gradient as computed
    when each of the S kernels was its own (r, o) array: stacked with
    `np.concatenate`, the mirror a concatenation of their transposes."""
    num_voxels, r = vox.shape
    flat = neighbors.ravel()

    def gather(a):
        padded = np.concatenate([a, np.zeros((1, a.shape[1]))])
        return np.take(padded, flat, axis=0).reshape(num_voxels, -1)

    gathered = gather(vox)
    mirrored = np.concatenate([kern.T for kern in reversed(kernels)])
    return gathered @ np.concatenate(kernels), gather(g) @ mirrored, gathered.T @ g


def stencil_vox_grad_oracle(g, neighbors, kernels, num_voxels):
    """Scatter each voxel's output gradient back through every filled slot."""
    spread = np.stack([g @ kern.T for kern in kernels], axis=1).reshape(-1, kernels[0].shape[0])
    flat = neighbors.ravel()
    gv = np.zeros((num_voxels, kernels[0].shape[0]))
    np.add.at(gv, flat[flat >= 0], spread[flat >= 0])
    return gv


# ---------------------------------------------------------------------------
# affine


class TestAffine:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(0)
        x, w, b = rand(rng, 7, 5), rand(rng, 5, 3), rand(rng, 3)
        got = ag.affine(x, w, b).data
        np.testing.assert_allclose(got, x.data @ w.data + b.data, rtol=0, atol=1e-12)

    def test_gradients_match_the_two_node_chain(self):
        rng = np.random.default_rng(1)
        x, w, b = rand(rng, 6, 4), rand(rng, 4, 3), rand(rng, 3)
        g = probe(rng, 6, 3)
        ag.backward(tsum(ag.mul(ag.affine(x, w, b), g)))
        # the gradients of x @ w followed by a bias add, at the probe g
        chain = (g.data @ w.data.T, x.data.T @ g.data, g.data.sum(axis=0))
        for t, want in zip((x, w, b), chain):
            np.testing.assert_allclose(t.grad, want, rtol=0, atol=1e-12)

    def test_central_differences(self):
        rng = np.random.default_rng(2)
        x, w, b = rand(rng, 5, 4), rand(rng, 4, 3), rand(rng, 3)
        g = probe(rng, 5, 3)
        fd_check(lambda: ag.mul(ag.affine(x, w, b), g), [x, w, b])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ag.affine(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((4, 2))), ag.Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# layer norm


class TestLayerNorm:
    def test_matches_seven_step_oracle(self):
        rng = np.random.default_rng(3)
        x, scale, shift = rand(rng, 9, 8), rand(rng, 8), rand(rng, 8)
        got = ag.layer_norm(x, scale, shift, 1e-5).data
        want = layer_norm_oracle(x.data, scale.data, shift.data, 1e-5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rows_are_normalized(self):
        rng = np.random.default_rng(4)
        x = ag.Tensor(rng.normal(3.0, 2.0, (6, 16)))
        out = ag.layer_norm(x, np.ones(16), np.zeros(16), 0.0).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-12)

    def test_central_differences(self):
        rng = np.random.default_rng(5)
        x, scale, shift = rand(rng, 4, 6), rand(rng, 6), rand(rng, 6)
        g = probe(rng, 4, 6)
        fd_check(lambda: ag.mul(ag.layer_norm(x, scale, shift, 1e-5), g), [x, scale, shift])


# ---------------------------------------------------------------------------
# latent attention


class TestAttend:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(6)
        q, k, v = rand(rng, 3, 4), rand(rng, 11, 4), rand(rng, 11, 4)
        out, weights = ag.attend(q, k, v, 0.5)
        want_w = softmax_oracle(q.data @ k.data.T * 0.5)
        np.testing.assert_allclose(weights, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want_w @ v.data, rtol=0, atol=1e-12)

    def test_central_differences(self):
        rng = np.random.default_rng(7)
        q, k, v = rand(rng, 3, 2), rand(rng, 5, 2), rand(rng, 5, 2)
        g = probe(rng, 3, 2)
        fd_check(lambda: ag.mul(ag.attend(q, k, v, 0.7)[0], g), [q, k, v])

    def test_nan_logits_rejected(self):
        q = ag.Tensor(np.array([[np.nan, 0.0]]))
        k = ag.Tensor(np.ones((3, 2)))
        with pytest.raises(NumericError):
            ag.attend(q, k, k, 1.0)


# ---------------------------------------------------------------------------
# patch attention


def shuffled_partition(rng, n, p):
    """A random point order chunked into patches of p, the last one padded
    unless p divides n."""
    return geo.partition(rng.permutation(n), n, p)


def attention_case(rng, n, d, m=0, r=0):
    """Input, the eight projection tensors, and optional prompts and LoRA factors."""
    x = rand(rng, n, d)
    weights = [rand(rng, *shape) for _ in range(4) for shape in ((d, d), (d,))]
    prompts = (rand(rng, m, d), rand(rng, m, d)) if m else None
    lora = tuple(rand(rng, *shape) for _ in range(2) for shape in ((d, r), (r, d))) if r else None
    return x, weights, prompts, lora


def data_of(tensors):
    return None if tensors is None else [t.data for t in tensors]


class TestPatchAttention:
    @pytest.mark.parametrize("m", [0, 3])
    def test_matches_split_heads_oracle(self, m):
        rng = np.random.default_rng(8 + m)
        n, d, heads, p = 23, 8, 2, 5
        part = shuffled_partition(rng, n, p)
        x, weights, prompts, _ = attention_case(rng, n, d, m=m)
        out, attn = ag.patch_attention(x, weights, part, heads, prompts=prompts)
        want, want_w = attention_oracle(x.data, data_of(weights), part.index, heads, prompts=data_of(prompts))
        assert attn.shape == (part.num_patches * heads, p, m + p)
        np.testing.assert_allclose(attn, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_lora_matches_oracle(self):
        rng = np.random.default_rng(20)
        n, d, heads, p = 23, 8, 2, 5
        part = shuffled_partition(rng, n, p)
        x, weights, _, lora = attention_case(rng, n, d, r=3)
        out, attn = ag.patch_attention(x, weights, part, heads, lora=lora)
        want, want_w = attention_oracle(x.data, data_of(weights), part.index, heads, lora=data_of(lora))
        np.testing.assert_allclose(attn, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_unpadded_patches_match_oracle(self):
        rng = np.random.default_rng(21)
        n, d, heads, p = 20, 8, 4, 5
        part = shuffled_partition(rng, n, p)
        assert (part.index >= 0).all()
        x, weights, prompts, lora = attention_case(rng, n, d, m=2, r=2)
        out, attn = ag.patch_attention(x, weights, part, heads, lora, prompts)
        want, want_w = attention_oracle(
            x.data, data_of(weights), part.index, heads, data_of(lora), data_of(prompts)
        )
        np.testing.assert_allclose(attn, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [0, 3], ids=["no_lora", "lora"])
    @pytest.mark.parametrize("m", [0, 3], ids=["no_prompts", "prompts"])
    @pytest.mark.parametrize("n", [23, 20], ids=["padded", "unpadded"])
    def test_partition_matches_oracle(self, n, m, r):
        """Both paths of the node: a padded partition gathers zero rows for
        its padded slots and masks their keys, an unpadded one does neither."""
        rng = np.random.default_rng(40 + n + m + r)
        d, heads, p = 8, 2, 5
        part = shuffled_partition(rng, n, p)
        assert part.padded == (n % p != 0)
        x, weights, prompts, lora = attention_case(rng, n, d, m=m, r=r)
        out, attn = ag.patch_attention(x, weights, part, heads, lora, prompts)
        want, want_w = attention_oracle(
            x.data, data_of(weights), part.index, heads, data_of(lora), data_of(prompts)
        )
        np.testing.assert_allclose(attn, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [0, 2], ids=["no_lora", "lora"])
    @pytest.mark.parametrize("m", [0, 2], ids=["no_prompts", "prompts"])
    @pytest.mark.parametrize("n", [7, 6], ids=["padded", "unpadded"])
    def test_partition_central_differences(self, n, m, r):
        rng = np.random.default_rng(50 + n + m + r)
        part = shuffled_partition(rng, n, 3)
        assert part.padded == (n % 3 != 0)
        x, weights, prompts, lora = attention_case(rng, n, 4, m=m, r=r)
        g = probe(rng, n, 4)
        fd_check(
            lambda: ag.mul(ag.patch_attention(x, weights, part, 2, lora, prompts)[0], g),
            [x, *weights, *(prompts or ()), *(lora or ())],
        )

    def test_padded_keys_get_zero_weight(self):
        rng = np.random.default_rng(10)
        part = shuffled_partition(rng, 7, 4)
        x, weights, _, _ = attention_case(rng, 7, 4)
        _, attn = ag.patch_attention(x, weights, part, 2)
        assert (attn[-2:, :, 3:] == 0.0).all()

    def test_central_differences_with_prompts_and_padding(self):
        rng = np.random.default_rng(11)
        n, d, heads, p, m = 7, 4, 2, 3, 2
        part = shuffled_partition(rng, n, p)
        assert (part.index < 0).any()
        x, weights, prompts, _ = attention_case(rng, n, d, m=m)
        g = probe(rng, n, d)
        fd_check(
            lambda: ag.mul(ag.patch_attention(x, weights, part, heads, prompts=prompts)[0], g),
            [x, *weights, *prompts],
        )

    def test_central_differences_without_prompts(self):
        rng = np.random.default_rng(12)
        part = shuffled_partition(rng, 6, 4)
        x, weights, _, _ = attention_case(rng, 6, 4)
        g = probe(rng, 6, 4)
        fd_check(lambda: ag.mul(ag.patch_attention(x, weights, part, 2)[0], g), [x, *weights])

    def test_central_differences_with_lora(self):
        rng = np.random.default_rng(22)
        part = shuffled_partition(rng, 7, 3)
        x, weights, _, lora = attention_case(rng, 7, 4, r=2)
        g = probe(rng, 7, 4)
        fd_check(
            lambda: ag.mul(ag.patch_attention(x, weights, part, 2, lora=lora)[0], g),
            [x, *weights, *lora],
        )

    def test_frozen_inputs_get_no_gradient(self):
        """Gradients land on the stored tensors passed in, and only on trainable ones."""
        rng = np.random.default_rng(23)
        part = shuffled_partition(rng, 7, 3)
        x, weights, _, lora = attention_case(rng, 7, 4, r=2)
        frozen = [x, weights[0], weights[3], weights[6], lora[0]]
        for t in frozen:
            t.requires_grad = False
        ag.backward(tsum(ag.patch_attention(x, weights, part, 2, lora=lora)[0]))
        assert all(t.grad is None for t in frozen)
        assert all(t.grad is not None for t in (*weights, *lora) if t.requires_grad)

    def test_nan_logits_rejected(self):
        rng = np.random.default_rng(13)
        part = shuffled_partition(rng, 5, 4)
        x, weights, _, _ = attention_case(rng, 5, 4)
        x.data[2, 0] = np.nan
        with pytest.raises(NumericError):
            ag.patch_attention(x, weights, part, 2)


# ---------------------------------------------------------------------------
# two-layer perceptron


class TestMlp:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(24)
        args = (rand(rng, 9, 5), rand(rng, 5, 7), rand(rng, 7), rand(rng, 7, 4), rand(rng, 4))
        got = ag.mlp(*args).data
        np.testing.assert_allclose(got, mlp_oracle(*data_of(args)), rtol=0, atol=1e-12)

    def test_central_differences(self):
        rng = np.random.default_rng(25)
        args = (rand(rng, 6, 3), rand(rng, 3, 5), rand(rng, 5), rand(rng, 5, 2), rand(rng, 2))
        g = probe(rng, 6, 2)
        fd_check(lambda: ag.mul(ag.mlp(*args), g), list(args))

    def test_gradients_match_the_three_node_chain(self):
        rng = np.random.default_rng(26)
        args = (rand(rng, 6, 3), rand(rng, 3, 5), rand(rng, 5), rand(rng, 5, 2), rand(rng, 2))
        x, w1, b1, w2, b2 = args
        g = probe(rng, 6, 2)
        ag.backward(tsum(ag.mul(ag.mlp(*args), g)))
        fused = [t.grad.copy() for t in args]
        for t in args:
            t.grad = None
        chain = ag.affine(ag.relu(ag.affine(x, w1, b1)), w2, b2)
        ag.backward(tsum(ag.mul(chain, g)))
        for got, t in zip(fused, args):
            np.testing.assert_allclose(got, t.grad, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# short-row kernels


def softmax_grad_oracle(s, g):
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


class TestShortRows:
    def test_row_and_column_sums(self):
        rng = np.random.default_rng(27)
        a = rng.normal(size=(4, 6, 16))
        np.testing.assert_allclose(ag._row_sums(a), a.sum(axis=-1, keepdims=True), rtol=0, atol=1e-12)
        b = rng.normal(size=(9, 5))
        np.testing.assert_allclose(ag._col_sums(b), b.sum(axis=0), rtol=0, atol=1e-12)

    def test_softmax_matches_per_row_shift(self):
        rng = np.random.default_rng(28)
        z = rng.normal(0.0, 4.0, (36, 16, 16))
        np.testing.assert_allclose(ag.softmax(z), softmax_oracle(z), rtol=0, atol=1e-12)

    def test_far_row_falls_back_to_per_row_shift(self):
        """Unshifted, the low row's exponentials underflow to 0."""
        rng = np.random.default_rng(29)
        z = rng.normal(size=(3, 8))
        z[1] -= 800.0
        assert np.exp(z[1]).sum() == 0.0
        got = ag.softmax(z)
        np.testing.assert_allclose(got, softmax_oracle(z), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_row_near_the_threshold_keeps_precision(self):
        z = np.array([[0.0, 1.0, 2.0], [-640.0, -641.0, -639.0]])
        np.testing.assert_allclose(ag.softmax(z), softmax_oracle(z), rtol=0, atol=1e-12)

    def test_large_logits_fall_back_without_overflow(self):
        z = np.array([[700.0, 699.0, 0.0], [1.0, 2.0, 3.0]])
        got = ag.softmax(z)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, softmax_oracle(z), rtol=0, atol=1e-12)

    def test_each_row_depends_on_that_row_alone(self):
        """Bit for bit: patch locality rests on this (acceptance criterion 7)."""
        rng = np.random.default_rng(32)
        z = rng.normal(0.0, 3.0, (4, 16, 16))
        bumped = z.copy()
        bumped[0, 3, 5] += 7.0
        same = np.ones(z.shape[:-1], dtype=bool)
        same[0, 3] = False
        assert (ag.softmax(bumped)[same] == ag.softmax(z)[same]).all()

    def test_nan_raises(self):
        z = np.zeros((2, 3, 4))
        z[1, 2, 3] = np.nan
        with pytest.raises(NumericError):
            ag.softmax(z)

    def test_softmax_grad_matches_oracle(self):
        rng = np.random.default_rng(30)
        s = softmax_oracle(rng.normal(size=(5, 16, 16)))
        g = rng.normal(size=(5, 16, 16))
        np.testing.assert_allclose(ag.softmax_grad(s, g), softmax_grad_oracle(s, g), rtol=0, atol=1e-12)

    def test_layer_norm_gradients_match_numpy_means(self):
        """The closed-form input gradient, with numpy's row means, on (144, 32) rows."""
        rng = np.random.default_rng(31)
        x, scale, shift = rand(rng, 144, 32), rand(rng, 32), rand(rng, 32)
        g = rng.normal(size=(144, 32))
        out = ag.layer_norm(x, scale, shift, 1e-5)
        ag.backward(tsum(ag.mul(out, g)))
        centered = x.data - x.data.mean(axis=-1, keepdims=True)
        inv = ((centered * centered).mean(axis=-1, keepdims=True) + 1e-5) ** -0.5
        xhat = centered * inv
        gx = g * scale.data
        want = inv * (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        np.testing.assert_allclose(out.data, xhat * scale.data + shift.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scale.grad, (g * xhat).sum(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(shift.grad, g.sum(axis=0), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# stencil


def stencil_case(rng, r=3, out=2, n=30):
    cloud = geo.PointCloud(coords=rng.uniform(0, 1.6, (n, 3)), feats=np.zeros((n, 1)))
    nbr = geo.build_neighbor_index(cloud, 0.5)
    vox = rand(rng, nbr.num_voxels, r)
    kernels = rand(rng, nbr.offsets.shape[0], r, out)
    return nbr, vox, kernels


class TestStencil:
    def test_matches_27_term_loop(self):
        rng = np.random.default_rng(14)
        nbr, vox, kernels = stencil_case(rng)
        assert (nbr.neighbor_voxels < 0).any()
        got = ag.stencil(vox, nbr.neighbor_voxels, kernels).data
        want = stencil_oracle(vox.data, nbr.neighbor_voxels, kernels.data)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_vox_gradient_matches_scatter(self, seed):
        rng = np.random.default_rng(seed)
        nbr, vox, kernels = stencil_case(rng, r=3, out=4)
        assert (nbr.neighbor_voxels < 0).any() and (nbr.neighbor_voxels[:, :13] >= 0).any()
        g = rng.normal(size=(nbr.num_voxels, 4))
        ag.backward(tsum(ag.mul(ag.stencil(vox, nbr.neighbor_voxels, kernels), g)))
        want = stencil_vox_grad_oracle(g, nbr.neighbor_voxels, kernels.data, nbr.num_voxels)
        np.testing.assert_allclose(vox.grad, want, rtol=0, atol=1e-12)

    def test_central_differences(self):
        rng = np.random.default_rng(15)
        nbr, vox, kernels = stencil_case(rng, r=2, out=2)
        g = probe(rng, nbr.num_voxels, 2)
        fd_check(lambda: ag.mul(ag.stencil(vox, nbr.neighbor_voxels, kernels), g), [vox, kernels])

    @pytest.mark.parametrize("r,out,n", [(3, 2, 30), (8, 8, 144), (32, 32, 144)])
    def test_bytes_match_separate_kernels(self, r, out, n):
        """Forward and both gradients equal, byte for byte, those of 27
        separate kernels; a mirror with the same values in C order instead
        of Fortran order takes another BLAS path and can differ in the last
        bits."""
        rng = np.random.default_rng(20)
        nbr, vox, kernels = stencil_case(rng, r, out, n)
        g = rng.uniform(-1, 1, (nbr.num_voxels, out))
        want = stencil_separate_kernels(vox.data, nbr.neighbor_voxels, [k.copy() for k in kernels.data], g)
        got = ag.stencil(vox, nbr.neighbor_voxels, kernels)
        ag.backward(tsum(ag.mul(got, ag.Tensor(g))))
        for have, ref in zip((got.data, vox.grad, kernels.grad.reshape(-1, out)), want):
            assert have.shape == ref.shape and have.tobytes() == ref.tobytes()

    def test_kernel_count_must_match_slots(self):
        rng = np.random.default_rng(16)
        nbr, vox, kernels = stencil_case(rng)
        with pytest.raises(ShapeError):
            ag.stencil(vox, nbr.neighbor_voxels, ag.Tensor(kernels.data[:-1]))
