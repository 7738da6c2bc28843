import numpy as np
import pytest

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import geometry as geo
from pointpeft import peft
from pointpeft.errors import ContractError, InfeasibleBudgetError, UsageError
from pointpeft.instrumentation import OpCounter

from test_autograd import tsum


def small_config(**kw):
    base = dict(
        d=8, blocks=4, patch_size=4, heads=2, ffn_mult=2,
        num_classes=3, in_channels=6, voxel_size=0.5,
    )
    base.update(kw)
    return bb.BackboneConfig(**base)


def rand_cloud(rng, n, channels=6):
    coords = rng.uniform(0, 4, (n, 3))
    feats = np.hstack([coords, rng.normal(size=(n, channels - 3))])
    return geo.PointCloud(coords=coords, feats=feats)


def run(cloud, config, store, attachment=None, **kw):
    part = geo.serialize(cloud, config.voxel_size, config.patch_size)
    nbr = geo.build_neighbor_index(cloud, config.voxel_size)
    return bb.forward(cloud, part, nbr, attachment, store, config, **kw)


def split_kernels(path, out):
    """Rewrite an attachment checkpoint with its (27, r, r) kernels as the
    27 records `peft.sa.kern.000`..`222` that held them before, in slot
    order, each named by its offset's digits shifted to 0..2."""
    cfg, sub = ag.load_checkpoint(path)
    old = ag.ParamStore()
    for name, t in sub.items():
        if name != "peft.sa.kernels":
            old.add(name, t.data, frozen=sub.frozen(name))
            continue
        for offset, kern in zip(geo.stencil_offsets(), t.data):
            old.add("peft.sa.kern." + "".join(str(v + 1) for v in offset), kern)
    ag.save_checkpoint(out, old, cfg)


def attached_model(method, bconfig=None, seed=0, **peft_kw):
    bconfig = bconfig or small_config()
    store = bb.init_backbone(bconfig, seed)
    pconfig = peft.PeftConfig(method=method, **peft_kw)
    attachment = peft.attach(pconfig, store, bconfig, seed=seed + 1)
    return bconfig, store, pconfig, attachment


class TestZeroInitIdentity:
    @pytest.mark.parametrize("method", ["adapter", "lora", "gem", "gem_sa_only", "gem_ca_only"])
    def test_attached_equals_frozen(self, method):
        bconfig = small_config()
        frozen = bb.init_backbone(bconfig, 3)
        store = frozen.clone()
        attachment = peft.attach(peft.PeftConfig(method=method, rank=4, tokens=2), store, bconfig, seed=9)
        for seed in range(3):
            cloud = rand_cloud(np.random.default_rng(seed), 24)
            base = run(cloud, bconfig, frozen).logits.data
            got = run(cloud, bconfig, store, attachment).logits.data
            assert np.abs(got - base).max() < 1e-12

    def test_linear_and_bitfit_add_no_parameters(self):
        for method in ("linear", "bitfit"):
            _, store, _, _ = attached_model(method)
            assert not [n for n in store.names() if n.startswith("peft.")]


class TestAdapter:
    def test_zero_up_returns_input(self):
        rng = np.random.default_rng(0)
        x = ag.Tensor(rng.normal(size=(5, 8)))
        down = ag.Tensor(rng.normal(size=(8, 4)))
        up = ag.Tensor(np.zeros((4, 8)))
        np.testing.assert_array_equal(peft.adapter_branch(x, down, up).data, x.data)

    def test_parameter_count(self):
        bconfig = small_config(d=64, heads=4, blocks=8)
        pconfig = peft.PeftConfig(method="adapter", rank=8)
        assert peft.peft_param_count(pconfig, bconfig) == 2 * 64 * 8 * 8
        store = bb.init_backbone(bconfig, 0)
        peft.attach(pconfig, store, bconfig)
        per_block = sum(
            t.numel for n, t in store.items() if n.startswith("peft.block0.adapter")
        )
        assert per_block == 1024

    def test_gradient_through_branch(self):
        rng = np.random.default_rng(1)
        store = ag.ParamStore()
        down = store.add("down", rng.uniform(-0.3, 0.3, (6, 3)))
        up = store.add("up", rng.uniform(-0.3, 0.3, (3, 6)))
        x = ag.Tensor(rng.uniform(0.5, 1.0, (4, 6)))
        err = ag.check_gradients(lambda: tsum(peft.adapter_branch(x, down, up)), store)
        assert err < 1e-4


class TestLora:
    def test_zero_up_matches_frozen_attention(self):
        bconfig, store, _, attachment = attached_model("lora", seed=4)
        frozen = {n: t.data.copy() for n, t in store.items()}
        cloud = rand_cloud(np.random.default_rng(2), 16)
        base = run(cloud, bconfig, store).logits.data
        got = run(cloud, bconfig, store, attachment).logits.data
        assert np.abs(got - base).max() < 1e-12
        for n, t in store.items():  # forward must not write anything
            assert t.data.tobytes() == frozen[n].tobytes()

    def test_parameter_count(self):
        bconfig = small_config(d=64, heads=4)
        pconfig = peft.PeftConfig(method="lora", rank=8)
        store = bb.init_backbone(bconfig, 0)
        peft.attach(pconfig, store, bconfig)
        per_block = sum(t.numel for n, t in store.items() if n.startswith("peft.block0.lora"))
        assert per_block == 2048

    def test_perturbed_up_changes_logits(self):
        bconfig, store, _, attachment = attached_model("lora", seed=5, rank=1)
        cloud = rand_cloud(np.random.default_rng(3), 12)
        base = run(cloud, bconfig, store, attachment).logits.data
        store["peft.block0.lora.q_up"].data[:] += 0.5
        bumped = run(cloud, bconfig, store, attachment).logits.data
        assert np.abs(bumped - base).max() > 0


def prompt_attention_oracle(x, store, prefix, heads, part, pk, pv):
    """Plain-numpy patch attention with prompts prepended to every patch's
    keys and values; padded slots take no part."""
    def lin(name):
        return x @ store[f"{prefix}.{name}.weight"].data + store[f"{prefix}.{name}.bias"].data

    q, k, v = lin("q"), lin("k"), lin("v")
    d = x.shape[1]
    dh = d // heads
    out = np.zeros_like(x)
    for row in part.index:
        pts = row[row >= 0]
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            keys = np.vstack([pk[:, sl], k[pts, sl]])
            vals = np.vstack([pv[:, sl], v[pts, sl]])
            logits = q[pts, sl] @ keys.T / np.sqrt(dh)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            out[pts, sl] = (e / e.sum(axis=1, keepdims=True)) @ vals
    return out @ store[f"{prefix}.out.weight"].data + store[f"{prefix}.out.bias"].data


class TestPrompt:
    def test_prompt_attention_matches_numpy_oracle(self):
        bconfig = small_config()
        store = bb.init_backbone(bconfig, 6)
        prefix = "backbone.block0.attn"
        for seed in range(4):
            rng = np.random.default_rng(40 + seed)
            n, m = (13, 10, 7, 16)[seed], seed + 1
            cloud = rand_cloud(rng, n)
            part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
            x = rng.normal(size=(n, bconfig.d))
            pk, pv = rng.normal(size=(m, bconfig.d)), rng.normal(size=(m, bconfig.d))
            prompts = (ag.Tensor(pk), ag.Tensor(pv))
            got = bb.local_attention(ag.Tensor(x), part, store, prefix, bconfig.heads, prompts=prompts)
            want = prompt_attention_oracle(x, store, prefix, bconfig.heads, part, pk, pv)
            assert np.abs(got.data - want).max() <= 1e-10

    def test_rows_sum_to_one_over_points_plus_prompts(self):
        bconfig, store, _, attachment = attached_model("prompt", seed=7, tokens=3)
        cloud = rand_cloud(np.random.default_rng(5), 10)
        tracer = OpCounter()
        run(cloud, bconfig, store, attachment, tracer=tracer)
        for i in range(bconfig.blocks):
            weights = tracer.arrays[f"block{i}.local_attn"]["weights"]
            assert weights.shape[-1] == bconfig.patch_size + 3
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_parameter_count(self):
        bconfig = small_config(d=64, heads=4)
        store = bb.init_backbone(bconfig, 0)
        peft.attach(peft.PeftConfig(method="prompt", tokens=4), store, bconfig)
        per_block = sum(t.numel for n, t in store.items() if n.startswith("peft.block0.prompt"))
        assert per_block == 512

    def test_prompts_change_output_at_init(self):
        # documented exception: prompt tuning is not an identity at init
        bconfig, store, _, attachment = attached_model("prompt", seed=8)
        cloud = rand_cloud(np.random.default_rng(6), 12)
        base = run(cloud, bconfig, store).logits.data
        got = run(cloud, bconfig, store, attachment).logits.data
        assert np.abs(got - base).max() > 1e-9


class TestBitfit:
    def test_selects_exactly_bias_and_shift(self):
        _, store, _, _ = attached_model("bitfit", seed=1)
        trainable = {n for n, _ in store.trainable_items()}
        expect = {
            n for n in store.names() if n.endswith(".bias") or n.endswith(".shift")
        }
        assert trainable - {"head.weight"} == expect

    def test_attach_adds_head_weight(self):
        bconfig, store, pconfig, _ = attached_model("bitfit")
        trainable = {n for n, _ in store.trainable_items()}
        assert "head.weight" in trainable
        assert "backbone.block0.attn.q.weight" not in trainable
        assert "backbone.block0.attn.q.bias" in trainable
        assert peft.trainable_param_count(pconfig, bconfig) == store.trainable_count


class TestSpatialAdapter:
    def test_parameter_count_formula(self):
        for d, r in ((64, 8), (32, 4), (64, 16)):
            bconfig = small_config(d=d, heads=4 if d % 4 == 0 else 2)
            pconfig = peft.PeftConfig(method="gem_sa_only", rank=r)
            store = bb.init_backbone(bconfig, 0)
            peft.attach(pconfig, store, bconfig)
            enumerated = sum(t.numel for n, t in store.items() if n.startswith("peft."))
            assert enumerated == 2 * r * d + 27 * r * r
            assert peft.peft_param_count(pconfig, bconfig) == enumerated

    def test_kernels_are_one_entry(self):
        """The 27 kernels sit in one (27, r, r) entry, slot order, between
        the down- and up-projections: a gem store at rank 8 and 4 tokens
        holds 106 entries."""
        _, store, _, _ = attached_model("gem", rank=8, tokens=4)
        assert len(store.names()) == 106
        assert [n for n in store.names() if n.startswith("peft.sa.")] == [
            "peft.sa.down", "peft.sa.kernels", "peft.sa.up"
        ]
        assert store["peft.sa.kernels"].shape == (27, 8, 8)

    def test_isolated_point_uses_center_kernel_only(self):
        bconfig, store, _, attachment = attached_model("gem_sa_only", seed=9, rank=4)
        store["peft.sa.up"].data[:] = np.random.default_rng(7).normal(size=(4, 8))
        cloud = rand_cloud(np.random.default_rng(8), 1)
        nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)
        x0 = bb.embed(cloud, store)
        branch = peft.spatial_adapter_branch(attachment.input_state(x0, nbr), nbr, store).data
        manual = np.maximum(
            x0.data @ store["peft.sa.down"].data @ store["peft.sa.kernels"].data[13], 0.0
        ) @ store["peft.sa.up"].data
        np.testing.assert_allclose(branch, manual, atol=1e-14)

    def test_voxel_means_match_a_per_voxel_loop(self):
        bconfig, store, _, attachment = attached_model("gem_sa_only", small_config(voxel_size=2.0))
        cloud = rand_cloud(np.random.default_rng(13), 40)
        nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)
        x0 = bb.embed(cloud, store)
        means = attachment.input_state(x0, nbr)
        assert means.shape == (nbr.num_voxels, bconfig.d)
        assert np.bincount(nbr.voxel_of_point).max() > 1
        for v in range(nbr.num_voxels):
            rows = x0.data[nbr.voxel_of_point == v]
            total = np.zeros(bconfig.d)
            for row in rows:  # in point order, as the means sum
                total = total + row
            assert means[v].tobytes() == (total / len(rows)).tobytes()

    def test_requires_neighbor_index(self):
        bconfig, store, _, attachment = attached_model("gem_sa_only")
        cloud = rand_cloud(np.random.default_rng(9), 8)
        part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        with pytest.raises(ContractError):
            bb.forward(cloud, part, None, attachment, store, bconfig)

    def test_neighbor_index_size_mismatch(self):
        bconfig, store, _, attachment = attached_model("gem_sa_only")
        small = rand_cloud(np.random.default_rng(10), 4)
        nbr = geo.build_neighbor_index(small, bconfig.voxel_size)
        with pytest.raises(ContractError):
            attachment.input_branch(np.zeros((8, 8)), nbr)

    def test_gradient_through_branch(self):
        bconfig, store, _, attachment = attached_model("gem_sa_only", seed=11, rank=2)
        rng = np.random.default_rng(11)
        store["peft.sa.up"].data[:] = rng.normal(size=(2, 8)) * 0.3
        cloud = rand_cloud(rng, 6)
        nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)
        x0 = ag.Tensor(rng.uniform(0.2, 1.0, (6, 8)))
        vox = attachment.input_state(x0, nbr)
        probe = ag.Tensor(rng.normal(size=(6, 8)))

        def f():
            return tsum(ag.mul(peft.spatial_adapter_branch(vox, nbr, store), probe))

        assert ag.check_gradients(f, store) < 1e-4


class TestContextAdapter:
    def test_zero_up_still_updates_latents(self):
        bconfig, store, _, attachment = attached_model("gem_ca_only", seed=12, rank=4, tokens=2)
        cloud = rand_cloud(np.random.default_rng(12), 12)
        tracer = OpCounter()
        run(cloud, bconfig, store, attachment, tracer=tracer)
        updates = [tracer.arrays[f"block{i}.ca.stage1"]["L_c"] for i in range(bconfig.blocks)]
        assert any(np.abs(lc).max() > 0 for lc in updates)

    def test_singleton_token_gives_uniform_stage2(self):
        bconfig, store, _, attachment = attached_model("gem_ca_only", seed=13, rank=4, tokens=1)
        tracer = OpCounter()
        cloud = rand_cloud(np.random.default_rng(13), 10)
        run(cloud, bconfig, store, attachment, tracer=tracer)
        for i in range(bconfig.blocks):
            stage2 = tracer.arrays[f"block{i}.ca.stage2"]["weights"]
            np.testing.assert_array_equal(stage2, np.ones((10, 1)))

    def test_stage1_rows_normalized(self):
        bconfig, store, _, attachment = attached_model("gem_ca_only", seed=14, tokens=3, rank=4)
        tracer = OpCounter()
        cloud = rand_cloud(np.random.default_rng(14), 20)
        run(cloud, bconfig, store, attachment, tracer=tracer)
        for i in range(bconfig.blocks):
            stage1 = tracer.arrays[f"block{i}.ca.stage1"]["weights"]
            assert stage1.shape == (3, 20)
            np.testing.assert_allclose(stage1.sum(axis=1), 1.0, atol=1e-9)

    def test_parameter_count(self):
        bconfig = small_config(d=64, heads=4, blocks=8)
        pconfig = peft.PeftConfig(method="gem_ca_only", rank=8, tokens=4)
        store = bb.init_backbone(bconfig, 0)
        peft.attach(pconfig, store, bconfig)
        enumerated = sum(t.numel for n, t in store.items() if n.startswith("peft."))
        want = 8 * (3 * 64 * 8 + 3 * 64 + 8 * 64) + 4 * 8
        assert enumerated == want
        assert peft.peft_param_count(pconfig, bconfig) == want

    def test_latent_state_never_leaks_across_clouds(self):
        bconfig, store, _, attachment = attached_model("gem", seed=15, rank=4, tokens=2)
        rng = np.random.default_rng(15)
        a, c = rand_cloud(rng, 10), rand_cloud(rng, 14)
        first = run(a, bconfig, store, attachment).logits.data
        run(c, bconfig, store, attachment)
        second = run(a, bconfig, store, attachment).logits.data
        np.testing.assert_array_equal(first, second)

    def test_gradient_through_branch(self):
        bconfig, store, _, attachment = attached_model(
            "gem_ca_only", seed=16, rank=2, tokens=2, sharing="global"
        )
        rng = np.random.default_rng(16)
        for name in store.names():
            if name.startswith("peft.") and name.endswith(".up"):
                store[name].data[:] = rng.normal(size=store[name].shape) * 0.2
        cloud = rand_cloud(rng, 6)
        part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)
        probe = ag.Tensor(rng.normal(size=(6, 3)))

        def f():
            out = bb.forward(cloud, part, nbr, attachment, store, bconfig)
            return tsum(ag.mul(out.logits, probe))

        assert ag.check_gradients(f, store) < 1e-4


class TestSharingModes:
    def trace_for(self, sharing, seed=17, bconfig=None):
        bconfig, store, _, attachment = attached_model(
            "gem_ca_only", bconfig, seed=seed, rank=4, tokens=2, sharing=sharing
        )
        cloud = rand_cloud(np.random.default_rng(seed), 12)
        tracer = OpCounter()
        run(cloud, bconfig, store, attachment, tracer=tracer)
        records = [tracer.arrays[f"block{i}.ca.stage1"] for i in range(bconfig.blocks)]
        trace = [(r["L_in"], r["L_c"]) for r in records]
        return store["peft.ca.latent"].data, trace, bconfig

    def test_per_block_always_starts_from_initial(self):
        L0, trace, _ = self.trace_for("per_block")
        for l_in, _ in trace:
            np.testing.assert_array_equal(l_in, L0)

    def test_global_carries_sum_forward(self):
        L0, trace, _ = self.trace_for("global")
        np.testing.assert_array_equal(trace[0][0], L0)
        for i in range(len(trace) - 1):
            np.testing.assert_allclose(trace[i + 1][0], trace[i][0] + trace[i][1], atol=1e-15)
        assert np.abs(trace[1][0] - L0).max() > 0

    def test_per_stage_resets_at_boundaries(self):
        stages = small_config(stages=((0, 2), (2, 4)))
        L0, trace, bconfig = self.trace_for("per_stage", bconfig=stages)
        for i in range(bconfig.blocks):
            first_of_stage = any(i == a for a, _ in bconfig.stages)
            if first_of_stage:
                np.testing.assert_array_equal(trace[i][0], L0)
            else:
                np.testing.assert_allclose(
                    trace[i][0], trace[i - 1][0] + trace[i - 1][1], atol=1e-15
                )
        assert np.abs(trace[3][0] - L0).max() > 0  # block 3 carries block 2's latent

    def test_per_stage_with_insertion_blocks_skipping_a_stage_start(self):
        """Blocks 0, 1 and 3 on stages [0, 2) and [2, 4): block 3 has no
        earlier insertion block in its stage, so it starts afresh."""
        bconfig, store, _, attachment = attached_model(
            "gem_ca_only", small_config(stages=((0, 2), (2, 4))), seed=18,
            rank=4, tokens=2, sharing="per_stage", blocks=(0, 1, 3),
        )
        tracer = OpCounter()
        run(rand_cloud(np.random.default_rng(18), 12), bconfig, store, attachment, tracer=tracer)
        L0 = store["peft.ca.latent"].data
        seen = {i: tracer.arrays[f"block{i}.ca.stage1"] for i in (0, 1, 3)}
        assert "block2.ca.stage1" not in tracer.arrays
        np.testing.assert_array_equal(seen[0]["L_in"], L0)
        np.testing.assert_array_equal(seen[3]["L_in"], L0)
        np.testing.assert_allclose(
            seen[1]["L_in"], seen[0]["L_in"] + seen[0]["L_c"], atol=1e-15
        )
        assert np.abs(seen[1]["L_in"] - L0).max() > 0


class TestAttach:
    def test_linear_trains_head_only(self):
        _, store, _, _ = attached_model("linear")
        assert {n for n, _ in store.trainable_items()} == {"head.weight", "head.bias"}

    def test_gem_hooks_both_families(self):
        _, store, _, attachment = attached_model("gem")
        assert attachment.config.has_spatial and attachment.config.has_context
        assert any(n.startswith("peft.sa.") for n in store.names())
        assert any(".ca." in n for n in store.names())

    def test_sa_only_and_ca_only_split_hooks(self):
        _, _, _, sa = attached_model("gem_sa_only")
        assert sa.attention_mods(0) == (None, None)
        assert sa.context_branch(ag.Tensor(np.zeros((2, 8))), 0, None) == (None, None)
        bconfig, store, _, ca = attached_model("gem_ca_only")
        assert ca.input_branch(ag.Tensor(np.zeros((2, 8))), None) is None

    def test_double_attach_rejected(self):
        bconfig, store, _, _ = attached_model("adapter")
        with pytest.raises(ContractError):
            peft.attach(peft.PeftConfig(method="lora"), store, bconfig)

    def test_gem_default_fraction_below_five_percent_on_toy(self):
        bconfig = bb.BackboneConfig()  # d=64, 8 blocks
        store = bb.init_backbone(bconfig, 0)
        pconfig = peft.PeftConfig(method="gem", rank=8, tokens=4)
        peft.attach(pconfig, store, bconfig)
        frac = store.trainable_count / store.total_count
        assert frac < 0.05
        assert frac == pytest.approx(peft.trainable_fraction(pconfig, bconfig), abs=1e-12)

    def test_accounting_matches_enumeration_for_every_method(self):
        bconfig = small_config()
        for method in peft.METHODS:
            store = bb.init_backbone(bconfig, 2)
            pconfig = peft.PeftConfig(method=method, rank=4, tokens=2)
            peft.attach(pconfig, store, bconfig)
            assert peft.trainable_param_count(pconfig, bconfig) == store.trainable_count
            enumerated = sum(t.numel for n, t in store.items() if n.startswith("peft."))
            assert peft.peft_param_count(pconfig, bconfig) == enumerated

    def test_insertion_block_subset(self):
        bconfig = small_config()
        store = bb.init_backbone(bconfig, 3)
        pconfig = peft.PeftConfig(method="adapter", rank=4, blocks=(1, 3))
        attachment = peft.attach(pconfig, store, bconfig)
        assert not any("block0" in n or "block2" in n for n in store.names() if n.startswith("peft."))
        x = ag.Tensor(np.ones((2, 8)))
        assert attachment.ffn_post(x, 0) is x


ACCEPTANCE = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3)


def closed_form(method, bconfig, rank, tokens, nblocks):
    """(added, trainable, total) scalars of `method` on `bconfig`, by formula."""
    d, r, m, k = bconfig.d, rank, tokens, bconfig.num_classes
    h, c, blocks = bconfig.ffn_mult * d, bconfig.in_channels, bconfig.blocks
    added = {
        "linear": 0,
        "bitfit": 0,
        "adapter": 2 * d * r * nblocks,
        "lora": 4 * d * r * nblocks,
        "prompt": 2 * m * d * nblocks,
        "gem_sa_only": 2 * r * d + 27 * r * r,
        "gem_ca_only": nblocks * (3 * d * r + 3 * r * r + r * d) + m * r,
    }
    added["gem"] = added["gem_sa_only"] + added["gem_ca_only"]
    head = d * k + k
    # embedding, positional MLP, blocks (norms, four projections, FFN), output norm
    stem = c * d + d + 3 * d + d + d * d + d
    block = 2 * d + 4 * (d * d + d) + 2 * d + d * h + h + h * d + d
    backbone = stem + blocks * block + 2 * d
    # every backbone .bias and .shift: the positional MLP's b1 and b2 are neither
    biases = d + blocks * (7 * d + h) + d
    trainable = added[method] + head + (biases if method == "bitfit" else 0)
    return added[method], trainable, backbone + head + added[method]


class TestAccounting:
    @pytest.mark.parametrize("method", peft.METHODS)
    @pytest.mark.parametrize(
        "bconfig", [small_config(), ACCEPTANCE, bb.BackboneConfig()],
        ids=["small", "acceptance", "cli-default"],
    )
    def test_counts_and_fraction_match_the_closed_forms(self, method, bconfig):
        for rank, tokens, blocks in ((8, 4, ()), (1, 1, ()), (3, 5, ()), (16, 2, ()), (4, 2, (1, 3))):
            pconfig = peft.PeftConfig(method=method, rank=rank, tokens=tokens, blocks=blocks)
            added, trainable, total = closed_form(
                method, bconfig, rank, tokens, len(blocks) or bconfig.blocks
            )
            assert peft.peft_param_count(pconfig, bconfig) == added
            assert peft.trainable_param_count(pconfig, bconfig) == trainable
            assert peft.trainable_fraction(pconfig, bconfig) == trainable / total


class TestBudgetFit:
    def test_fraction_boundary_for_rank_methods(self):
        bconfig = bb.BackboneConfig()
        for method in ("adapter", "lora", "gem", "gem_sa_only", "gem_ca_only"):
            for budget in (0.01, 0.05):
                config = peft.budget_fit(method, budget, bconfig)
                frac = peft.trainable_fraction(config, bconfig)
                assert frac <= budget
                bigger = peft.PeftConfig(
                    method=method,
                    rank=config.rank + 1,
                    tokens=peft._tokens_for_rank(config.rank + 1),
                )
                assert peft.trainable_fraction(bigger, bconfig) > budget

    def test_prompt_maximizes_tokens(self):
        bconfig = bb.BackboneConfig()
        config = peft.budget_fit("prompt", 0.02, bconfig)
        assert peft.trainable_fraction(config, bconfig) <= 0.02
        bigger = peft.PeftConfig(method="prompt", tokens=config.tokens + 1)
        assert peft.trainable_fraction(bigger, bconfig) > 0.02

    def test_below_head_floor_is_infeasible(self):
        bconfig = bb.BackboneConfig()
        floor = peft.trainable_fraction(peft.PeftConfig(method="linear"), bconfig)
        with pytest.raises(InfeasibleBudgetError):
            peft.budget_fit("lora", floor / 2, bconfig)

    @pytest.mark.parametrize("method", ["adapter", "lora", "gem", "gem_sa_only", "gem_ca_only", "prompt"])
    def test_search_equals_the_linear_search(self, method, monkeypatch):
        """The doubling-then-bisection search returns what trying one knob
        value after another returns, in O(log knob) fraction calls."""
        bconfig = bb.BackboneConfig(d=16, blocks=2, heads=2)
        fraction = peft.trainable_fraction

        def sized(n):
            if method == "prompt":
                return peft.PeftConfig(method=method, tokens=n)
            return peft.PeftConfig(method=method, rank=n, tokens=peft._tokens_for_rank(n))

        calls = []
        monkeypatch.setattr(peft, "trainable_fraction", lambda *a: calls.append(a) or fraction(*a))
        for budget in (0.04, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9):
            n = 1
            while fraction(sized(n + 1), bconfig) <= budget:
                n += 1
            calls.clear()
            assert peft.budget_fit(method, budget, bconfig) == sized(n)
            assert len(calls) <= 2 * n.bit_length() + 1

    def test_budgets_near_one_stay_cheap(self, monkeypatch):
        """At the CLI's default backbone a budget of 0.9999 fits a rank near
        two million; the old search made one call per rank."""
        fraction, calls = peft.trainable_fraction, []
        monkeypatch.setattr(peft, "trainable_fraction", lambda *a: calls.append(a) or fraction(*a))
        rank = peft.budget_fit("lora", 0.9999, bb.BackboneConfig()).rank
        assert rank > 10**6 and len(calls) <= 2 * rank.bit_length() + 1

    def test_linear_passes_when_affordable(self):
        bconfig = bb.BackboneConfig()
        config = peft.budget_fit("linear", 0.01, bconfig)
        assert config.method == "linear"


class TestPeftCheckpoint:
    @pytest.mark.parametrize("method", peft.METHODS)
    def test_round_trip_preserves_logits(self, method, tmp_path):
        """Every entry the method trains, perturbed, comes back bitwise:
        BitFit's backbone biases and shifts as much as the adapters."""
        bconfig, store, pconfig, attachment = attached_model(method, seed=20, rank=4, tokens=2)
        rng = np.random.default_rng(20)
        for _, t in store.trainable_items():
            t.data[...] += rng.normal(size=t.shape) * 0.1
        cloud = rand_cloud(rng, 16)
        want = run(cloud, bconfig, store, attachment).logits.data
        path = tmp_path / "peft.ckpt"
        peft.save_peft(path, store, pconfig, bconfig, command="test")
        backbone_only = bb.init_backbone(bconfig, 20)
        loaded_config, composed, loaded_attachment = peft.load_peft(path, backbone_only, bconfig)
        assert loaded_config == pconfig
        assert composed.byte_snapshot() == store.byte_snapshot()
        got = run(cloud, bconfig, composed, loaded_attachment).logits.data
        assert got.tobytes() == want.tobytes()

    def test_head_only_bitfit_checkpoint_refused(self, tmp_path):
        """A BitFit checkpoint holding only the head, as `save_peft` wrote
        them before it kept the tuned biases and shifts, is refused with the
        entries it lacks."""
        bconfig, store, pconfig, _ = attached_model("bitfit", seed=22)
        head_only = ag.ParamStore()
        for name in ("head.weight", "head.bias"):
            head_only.add(name, store[name].data.copy())
        path = tmp_path / "old.ckpt"
        ag.save_checkpoint(
            path, head_only, {**pconfig.to_dict(), "backbone_hash": ag.config_hash(bconfig.to_dict())}
        )
        with pytest.raises(ContractError) as err:
            peft.load_peft(path, bb.init_backbone(bconfig, 22), bconfig)
        message = str(err.value)
        assert "'backbone.embed.bias'" in message and "'backbone.block3.ln2.shift'" in message
        assert "re-run `pointpeft finetune`" in message

    @pytest.mark.parametrize("method", ["gem", "gem_sa_only"])
    def test_per_offset_kernel_checkpoint_refused(self, method, tmp_path):
        """A spatial-adapter checkpoint written when each of the 27 kernels
        was its own entry is refused with the entries it lacks and holds."""
        bconfig, store, pconfig, _ = attached_model(method, seed=23, rank=2, tokens=2)
        path, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        peft.save_peft(path, store, pconfig, bconfig)
        split_kernels(path, old)
        assert len(ag.load_checkpoint(old)[1].names()) == len(ag.load_checkpoint(path)[1].names()) + 26
        with pytest.raises(ContractError) as err:
            peft.load_peft(old, bb.init_backbone(bconfig, 23), bconfig)
        message = str(err.value)
        assert "missing ['peft.sa.kernels']" in message
        assert "'peft.sa.kern.000'" in message and "'peft.sa.kern.222'" in message
        assert "re-run `pointpeft finetune`" in message

    def test_stencil_size_other_than_three_rejected(self):
        cfg = peft.PeftConfig(method="gem").to_dict()
        assert cfg["k"] == "3"
        assert peft.PeftConfig.from_dict(cfg) == peft.PeftConfig(method="gem")
        with pytest.raises(UsageError, match="stencil size is fixed at k=3"):
            peft.PeftConfig.from_dict({**cfg, "k": "5"})

    def test_backbone_hash_mismatch_rejected(self, tmp_path):
        bconfig, store, pconfig, _ = attached_model("adapter", seed=21)
        path = tmp_path / "peft.ckpt"
        peft.save_peft(path, store, pconfig, bconfig)
        other = small_config(d=16, heads=4)
        other_store = bb.init_backbone(other, 0)
        with pytest.raises(ContractError):
            peft.load_peft(path, other_store, other)
