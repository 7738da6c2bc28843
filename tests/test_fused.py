"""Fused single-node ops against central differences and plain-numpy oracles.

Each oracle is the multi-step composition the fused op replaces, written
out in numpy: the seven-step layer norm, the split-heads patch attention
chain, the two-matmul latent attention and the 27-term stencil loop.
"""

import math

import numpy as np
import pytest

from pointpeft import autograd as ag
from pointpeft import geometry as geo
from pointpeft.errors import NumericError, ShapeError

from test_autograd import fd_check, rand


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


def stencil_oracle(vox, neighbors, kernels):
    acc = np.zeros((vox.shape[0], kernels[0].shape[1]))
    for s, kern in enumerate(kernels):
        rows = np.where((neighbors[:, s] >= 0)[:, None], vox[neighbors[:, s]], 0.0)
        acc = acc + rows @ kern
    return acc


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
        ag.backward(ag.tsum(ag.mul(ag.affine(x, w, b), g)))
        fused = [t.grad.copy() for t in (x, w, b)]
        for t in (x, w, b):
            t.grad = None
        ag.backward(ag.tsum(ag.mul(ag.add(ag.matmul(x, w), b), g)))
        for got, t in zip(fused, (x, w, b)):
            np.testing.assert_allclose(got, t.grad, rtol=0, atol=1e-12)

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


def padded_index(rng, n, p):
    """A random point order chunked into patches of p, the last one padded."""
    return geo.partition(rng.permutation(n), n, p).index


class TestPatchAttention:
    @pytest.mark.parametrize("m", [0, 3])
    def test_matches_split_heads_oracle(self, m):
        rng = np.random.default_rng(8 + m)
        n, d, heads, p = 23, 8, 2, 5
        index = padded_index(rng, n, p)
        q, k, v = (rand(rng, n, d) for _ in range(3))
        pk, pv = (rand(rng, m, d) for _ in range(2)) if m else (None, None)
        out, weights = ag.patch_attention(q, k, v, index, heads, pk, pv)
        want, want_w = patch_attention_oracle(
            q.data, k.data, v.data, index, heads,
            None if pk is None else pk.data, None if pv is None else pv.data,
        )
        assert weights.shape == (index.shape[0] * heads, p, m + p)
        np.testing.assert_allclose(weights, want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_padded_keys_get_zero_weight(self):
        rng = np.random.default_rng(10)
        index = padded_index(rng, 7, 4)
        q, k, v = (rand(rng, 7, 4) for _ in range(3))
        _, weights = ag.patch_attention(q, k, v, index, 2)
        assert (weights[-2:, :, 3:] == 0.0).all()

    def test_central_differences_with_prompts_and_padding(self):
        rng = np.random.default_rng(11)
        n, d, heads, p, m = 7, 4, 2, 3, 2
        index = padded_index(rng, n, p)
        assert (index < 0).any()
        q, k, v = (rand(rng, n, d) for _ in range(3))
        pk, pv = rand(rng, m, d), rand(rng, m, d)
        g = probe(rng, n, d)
        fd_check(
            lambda: ag.mul(ag.patch_attention(q, k, v, index, heads, pk, pv)[0], g),
            [q, k, v, pk, pv],
        )

    def test_central_differences_without_prompts(self):
        rng = np.random.default_rng(12)
        index = padded_index(rng, 6, 4)
        q, k, v = (rand(rng, 6, 4) for _ in range(3))
        g = probe(rng, 6, 4)
        fd_check(lambda: ag.mul(ag.patch_attention(q, k, v, index, 2)[0], g), [q, k, v])

    def test_nan_logits_rejected(self):
        rng = np.random.default_rng(13)
        index = padded_index(rng, 5, 4)
        q = rng.normal(size=(5, 4))
        q[2, 0] = np.nan
        k = ag.Tensor(rng.normal(size=(5, 4)))
        with pytest.raises(NumericError):
            ag.patch_attention(ag.Tensor(q), k, k, index, 2)


# ---------------------------------------------------------------------------
# stencil


def stencil_case(rng, r=3, out=2):
    cloud = geo.PointCloud(coords=rng.uniform(0, 1.6, (30, 3)), feats=np.zeros((30, 1)))
    nbr = geo.build_neighbor_index(cloud, 0.5)
    vox = rand(rng, nbr.num_voxels, r)
    kernels = [rand(rng, r, out) for _ in range(nbr.offsets.shape[0])]
    return nbr, vox, kernels


class TestStencil:
    def test_matches_27_term_loop(self):
        rng = np.random.default_rng(14)
        nbr, vox, kernels = stencil_case(rng)
        assert (nbr.neighbor_voxels < 0).any()
        got = ag.stencil(vox, nbr.neighbor_voxels, kernels).data
        want = stencil_oracle(vox.data, nbr.neighbor_voxels, [t.data for t in kernels])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_central_differences(self):
        rng = np.random.default_rng(15)
        nbr, vox, kernels = stencil_case(rng, r=2, out=2)
        g = probe(rng, nbr.num_voxels, 2)
        fd_check(lambda: ag.mul(ag.stencil(vox, nbr.neighbor_voxels, kernels), g), [vox, *kernels])

    def test_kernel_count_must_match_slots(self):
        rng = np.random.default_rng(16)
        nbr, vox, kernels = stencil_case(rng)
        with pytest.raises(ShapeError):
            ag.stencil(vox, nbr.neighbor_voxels, kernels[:-1])
