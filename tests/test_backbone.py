import numpy as np
import pytest

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import geometry as geo
from pointpeft.errors import ContractError, ShapeError, UsageError
from pointpeft.instrumentation import OpCounter

from test_autograd import tsum


def rand_cloud(rng, n, channels=6):
    coords = rng.uniform(0, 4, (n, 3))
    feats = np.hstack([coords, rng.normal(size=(n, channels - 3))])
    return geo.PointCloud(coords=coords, feats=feats)


def small_config(**kw):
    base = dict(
        d=8, blocks=2, patch_size=4, heads=2, ffn_mult=2,
        num_classes=3, in_channels=6, voxel_size=0.5,
    )
    base.update(kw)
    return bb.BackboneConfig(**base)


def dense_attention_oracle(x, store, prefix, heads, allow):
    """Plain-numpy full attention with an n x n boolean visibility mask."""
    def lin(name):
        return x @ store[f"{prefix}.{name}.weight"].data + store[f"{prefix}.{name}.bias"].data

    q, k, v = lin("q"), lin("k"), lin("v")
    n, d = x.shape
    dh = d // heads
    out = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        logits = np.where(allow, logits, -np.inf)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[:, sl] = (e / e.sum(axis=1, keepdims=True)) @ v[:, sl]
    return out @ store[f"{prefix}.out.weight"].data + store[f"{prefix}.out.bias"].data


class TestConfig:
    def test_default_stages_partition_blocks(self):
        config = bb.BackboneConfig()
        assert config.stages == ((0, 2), (2, 4), (4, 6), (6, 8))
        assert config.stage_of(0) == 0 and config.stage_of(7) == 3

    def test_width_must_divide_heads(self):
        with pytest.raises(UsageError):
            bb.BackboneConfig(d=10, heads=4)

    @pytest.mark.parametrize("voxel_size", [float("nan"), float("inf"), 0.0, -0.5])
    def test_voxel_size_must_be_finite_and_positive(self, voxel_size):
        with pytest.raises(UsageError, match="voxel_size"):
            bb.BackboneConfig(voxel_size=voxel_size)

    def test_bad_stage_cover_rejected(self):
        with pytest.raises(UsageError):
            bb.BackboneConfig(blocks=4, stages=((0, 2), (3, 4)))

    def test_dict_round_trip(self):
        config = small_config()
        assert bb.BackboneConfig.from_dict(config.to_dict()) == config


class TestEmbed:
    def test_zero_features_zero_bias(self):
        config = small_config()
        store = bb.init_backbone(config, 0)
        cloud = geo.PointCloud(coords=np.zeros((4, 3)), feats=np.zeros((4, 6)))
        store["backbone.embed.bias"].data[:] = 0.0
        assert np.all(bb.embed(cloud, store).data == 0.0)

    def test_identity_projection_copies_features(self):
        config = small_config(d=6, heads=2, in_channels=6)
        store = bb.init_backbone(config, 0)
        store["backbone.embed.weight"].data[:] = np.eye(6)
        store["backbone.embed.bias"].data[:] = 0.0
        rng = np.random.default_rng(0)
        cloud = rand_cloud(rng, 5)
        np.testing.assert_array_equal(bb.embed(cloud, store).data, cloud.feats)

    def test_width_mismatch_rejected(self):
        store = bb.init_backbone(small_config(), 0)
        cloud = geo.PointCloud(coords=np.zeros((2, 3)), feats=np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            bb.embed(cloud, store)

    def test_gradient_on_projection(self):
        rng = np.random.default_rng(1)
        store = bb.init_backbone(small_config(), 2)
        for name in store.names():
            store.set_frozen(name, True)
        store.set_frozen("backbone.embed.weight", False)
        cloud = rand_cloud(rng, 6)
        err = ag.check_gradients(lambda: tsum(bb.embed(cloud, store)), store)
        assert err < 1e-6


class TestPosEncode:
    def test_zero_weights_zero_output(self):
        store = bb.init_backbone(small_config(), 0)
        for name in ("backbone.pos.w1", "backbone.pos.b1", "backbone.pos.w2", "backbone.pos.b2"):
            store[name].data[:] = 0.0
        out = bb.pos_encode(ag.Tensor(np.ones((3, 3))), store)
        assert np.all(out.data == 0.0)

    def test_pointwise_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        store = bb.init_backbone(small_config(), 3)
        coords = rng.uniform(-1, 1, (7, 3))
        perm = rng.permutation(7)
        a = bb.pos_encode(ag.Tensor(coords), store).data
        b = bb.pos_encode(ag.Tensor(coords[perm]), store).data
        np.testing.assert_array_equal(a[perm], b)

    def test_gradient_on_both_layers(self):
        rng = np.random.default_rng(3)
        store = bb.init_backbone(small_config(), 4)
        for name in store.names():
            store.set_frozen(name, True)
        store.set_frozen("backbone.pos.w1", False)
        store.set_frozen("backbone.pos.w2", False)
        coords = ag.Tensor(rng.uniform(-1, 1, (5, 3)))
        # keep hidden units away from the ReLU kink for finite differences
        store["backbone.pos.b1"].data[:] = 0.3
        err = ag.check_gradients(lambda: tsum(bb.pos_encode(coords, store)), store)
        assert err < 1e-4


class TestLocalAttention:
    def test_single_patch_equals_global_attention(self):
        rng = np.random.default_rng(4)
        config = small_config(patch_size=32)
        store = bb.init_backbone(config, 5)
        cloud = rand_cloud(rng, 12)
        part = geo.serialize(cloud, 0.5, 32)
        x = rng.normal(size=(12, 8))
        got = bb.local_attention(ag.Tensor(x), part, store, "backbone.block0.attn", 2).data
        want = dense_attention_oracle(x, store, "backbone.block0.attn", 2, np.ones((12, 12), bool))
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("p", [4, 16])
    def test_matches_block_diagonal_dense_oracle(self, p):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(5, 65))
            store = bb.init_backbone(small_config(), seed)
            cloud = rand_cloud(rng, n)
            part = geo.serialize(cloud, 0.5, p)
            patch_of = np.empty(n, dtype=int)
            for pi in range(part.num_patches):
                pts = part.index[pi][~part.pad_mask[pi]]
                patch_of[pts] = pi
            allow = patch_of[:, None] == patch_of[None, :]
            x = rng.normal(size=(n, 8))
            got = bb.local_attention(ag.Tensor(x), part, store, "backbone.block0.attn", 2).data
            want = dense_attention_oracle(x, store, "backbone.block0.attn", 2, allow)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_singleton_patches_return_value_rows(self):
        rng = np.random.default_rng(5)
        store = bb.init_backbone(small_config(), 6)
        store["backbone.block0.attn.out.weight"].data[:] = np.eye(8)
        store["backbone.block0.attn.out.bias"].data[:] = 0.0
        cloud = rand_cloud(rng, 6)
        part = geo.serialize(cloud, 0.5, 1)
        x = rng.normal(size=(6, 8))
        got = bb.local_attention(ag.Tensor(x), part, store, "backbone.block0.attn", 2).data
        want = x @ store["backbone.block0.attn.v.weight"].data + store["backbone.block0.attn.v.bias"].data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_partition_size_mismatch_rejected(self):
        store = bb.init_backbone(small_config(), 0)
        part = geo.partition(np.arange(4), 4, 2)
        with pytest.raises(ContractError):
            bb.local_attention(ag.Tensor(np.zeros((6, 8))), part, store, "backbone.block0.attn", 2)


class TestFfn:
    def test_zero_weights_zero_output(self):
        store = bb.init_backbone(small_config(), 0)
        for suffix in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"):
            store[f"backbone.block0.ffn.{suffix}"].data[:] = 0.0
        out = bb.ffn(ag.Tensor(np.ones((4, 8))), store, "backbone.block0.ffn")
        assert np.all(out.data == 0.0)

    def test_row_equivariance(self):
        rng = np.random.default_rng(6)
        store = bb.init_backbone(small_config(), 7)
        x = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        a = bb.ffn(ag.Tensor(x), store, "backbone.block0.ffn").data
        b = bb.ffn(ag.Tensor(x[perm]), store, "backbone.block0.ffn").data
        np.testing.assert_array_equal(a[perm], b)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        store = bb.init_backbone(small_config(), 8)
        for name in store.names():
            store.set_frozen(name, True)
        store.set_frozen("backbone.block0.ffn.fc1.weight", False)
        store.set_frozen("backbone.block0.ffn.fc2.weight", False)
        store["backbone.block0.ffn.fc1.bias"].data[:] = 0.3
        x = ag.Tensor(rng.uniform(-1, 1, (5, 8)))
        err = ag.check_gradients(lambda: tsum(bb.ffn(x, store, "backbone.block0.ffn")), store)
        assert err < 1e-4


def run_forward(cloud, config, store, **kw):
    part = geo.serialize(cloud, config.voxel_size, config.patch_size)
    return bb.forward(cloud, part, None, None, store, config, **kw)


class TestForward:
    def test_single_point_cloud(self):
        config = small_config()
        store = bb.init_backbone(config, 9)
        cloud = rand_cloud(np.random.default_rng(8), 1)
        result = run_forward(cloud, config, store)
        assert result.logits.shape == (1, 3)
        assert np.isfinite(result.logits.data).all()

    def test_activations_recorded_per_block(self):
        config = small_config()
        store = bb.init_backbone(config, 10)
        cloud = rand_cloud(np.random.default_rng(9), 10)
        tracer = OpCounter()
        result = run_forward(cloud, config, store, tracer=tracer)
        for i in range(config.blocks):
            assert tracer.arrays[f"block{i}"]["x"].shape == (10, 8)
            assert tracer.arrays[f"block{i}.local_attn"]["weights"].ndim == 3
        np.testing.assert_array_equal(
            result.logits.data,
            bb.linear(
                bb.layer_norm(ag.Tensor(tracer.arrays["block1"]["x"]), store, "backbone.ln_out"),
                store, "head",
            ).data,
        )

    def test_gradient_of_logits_everywhere(self):
        config = small_config(blocks=1, patch_size=4)
        store = bb.init_backbone(config, 11)
        rng = np.random.default_rng(10)
        cloud = rand_cloud(rng, 6)
        weights = ag.Tensor(rng.normal(size=(6, 3)))
        part = geo.serialize(cloud, config.voxel_size, config.patch_size)

        def f():
            out = bb.forward(cloud, part, None, None, store, config)
            return tsum(ag.mul(out.logits, weights))

        assert ag.check_gradients(f, store) < 1e-4

    def test_patch_locality_of_feature_perturbation(self):
        config = small_config()
        store = bb.init_backbone(config, 12)
        rng = np.random.default_rng(11)
        cloud = rand_cloud(rng, 16)
        part = geo.serialize(cloud, config.voxel_size, config.patch_size)
        base_trace, out_trace = OpCounter(), OpCounter()
        base = bb.forward(cloud, part, None, None, store, config, tracer=base_trace)
        victim = int(part.index[0, 0])
        other = [int(i) for i in part.index[1] if i >= 0]
        bumped = geo.PointCloud(coords=cloud.coords, feats=cloud.feats.copy())
        bumped.feats[victim, 3:] += 1.0
        out = bb.forward(bumped, part, None, None, store, config, tracer=out_trace)
        for blk in range(config.blocks):
            np.testing.assert_array_equal(
                base_trace.arrays[f"block{blk}"]["x"][other],
                out_trace.arrays[f"block{blk}"]["x"][other],
            )
        assert not np.array_equal(base.logits.data[victim], out.logits.data[victim])

    def test_permutation_consistency(self):
        config = small_config()
        store = bb.init_backbone(config, 13)
        rng = np.random.default_rng(12)
        # jittered grid: every point in its own voxel, so ordering is
        # coordinate-determined and permutation-independent
        base = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(2)], float)
        coords = base * 0.5 + 0.25 + rng.uniform(-0.05, 0.05, (18, 3))
        feats = np.hstack([coords, rng.normal(size=(18, 3))])
        cloud = geo.PointCloud(coords=coords, feats=feats)
        perm = rng.permutation(18)
        shuffled = geo.PointCloud(coords=coords[perm], feats=feats[perm])
        a = run_forward(cloud, config, store).logits.data
        b = run_forward(shuffled, config, store).logits.data
        np.testing.assert_allclose(a[perm], b, atol=1e-10)

    def test_head_linearity(self):
        config = small_config()
        store = bb.init_backbone(config, 14)
        store["head.bias"].data[:] = 0.0
        cloud = rand_cloud(np.random.default_rng(13), 9)
        one = run_forward(cloud, config, store).logits.data
        store["head.weight"].data[:] *= 2.0
        two = run_forward(cloud, config, store).logits.data
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-12)

    def test_partition_mismatch_rejected(self):
        config = small_config()
        store = bb.init_backbone(config, 15)
        cloud = rand_cloud(np.random.default_rng(14), 8)
        part = geo.partition(np.arange(5), 5, 4)
        with pytest.raises(ContractError):
            bb.forward(cloud, part, None, None, store, config)


class TestCheckpoint:
    def test_round_trip_with_layout_validation(self, tmp_path):
        config = small_config()
        store = bb.init_backbone(config, 16)
        path = tmp_path / "bb.ckpt"
        bb.save_backbone(path, store, config, command="test")
        loaded_config, loaded = bb.load_backbone(path)
        assert loaded_config == config
        for name, t in store.items():
            assert loaded[name].data.tobytes() == t.data.tobytes()

    def test_truncated_checkpoint_rejected(self, tmp_path):
        config = small_config()
        store = bb.init_backbone(config, 17)
        path = tmp_path / "bb.ckpt"
        bb.save_backbone(path, store, config)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ContractError):
            bb.load_backbone(path)

    def test_same_seed_same_init(self):
        config = small_config()
        a, b = bb.init_backbone(config, 18), bb.init_backbone(config, 18)
        for name, t in a.items():
            assert t.data.tobytes() == b[name].data.tobytes()
