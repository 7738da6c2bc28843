"""Tests for operation counting and attention dumps.

Scaling oracles are computed from closed forms, never from the counter
itself, so the two sides stay independent.
"""

import numpy as np
import pytest

import pointpeft.autograd as ag
import pointpeft.backbone as bb
import pointpeft.instrumentation as ins
import pointpeft.peft as peft
from pointpeft.errors import DataError, UsageError
from pointpeft.geometry import PointCloud, build_neighbor_index, serialize


def grid_cloud(n, seed=0, num_classes=3, offset=0.0):
    """Jittered grid: unique voxel keys, deterministic geometry."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n ** (1.0 / 3.0)))
    pts = []
    for ix in range(side):
        for iy in range(side):
            for iz in range(side):
                pts.append((ix, iy, iz))
    coords = np.array(pts[:n], dtype=np.float64)
    coords += rng.uniform(0.1, 0.4, size=coords.shape)
    coords[:, 0] += offset
    feats = np.concatenate([coords, rng.normal(size=(n, 3))], axis=1)
    labels = rng.integers(0, num_classes, size=n)
    return PointCloud(coords=coords, feats=feats, labels=labels, num_classes=num_classes)


def make_model(method, n=64, d=32, blocks=2, p=8, rank=4, tokens=2, seed=0):
    bconfig = bb.BackboneConfig(
        d=d, blocks=blocks, patch_size=p, heads=4, num_classes=3,
        voxel_size=1.0, stages=((0, blocks),),
    )
    store = bb.init_backbone(bconfig, seed=seed)
    pconfig = peft.PeftConfig(method=method, rank=rank, tokens=tokens, sharing="global")
    attachment = peft.attach(pconfig, store, bconfig, seed=seed)
    return bconfig, store, attachment


class TestOpCounter:
    def test_add_accumulates(self):
        c = ins.OpCounter()
        c.record("a", 3)
        c.record("a", 4)
        c.record("b", 1)
        assert c.sites == {"a": 7, "b": 1}

    def test_arrays_are_copied_and_add_no_count(self):
        c = ins.OpCounter()
        live = np.arange(4.0)
        c.record("a", weights=live)
        live[:] = -1.0
        assert c.sites == {}
        np.testing.assert_array_equal(c.arrays["a"]["weights"], np.arange(4.0))

    def test_total_filters_by_substring(self):
        c = ins.OpCounter()
        c.record("block0.ca.proj", 10)
        c.record("block0.ca.stage1", 5)
        c.record("block0.ffn", 100)
        assert c.total(".ca.") == 15
        assert c.total() == 115

    def test_report_csv_sorted(self):
        c = ins.OpCounter()
        c.record("b", 2)
        c.record("a", 1)
        assert c.report_csv() == "site,count\na,1\nb,2\n"


class TestCountPass:
    def test_embed_and_head_counts_exact(self):
        n = 64
        bconfig, store, attachment = make_model("linear", n=n)
        cloud = grid_cloud(n)
        counter = ins.count_pass(cloud, store, bconfig, attachment)
        assert counter.sites["embed"] == n * 6 * bconfig.d
        assert counter.sites["head"] == n * bconfig.d * bconfig.num_classes
        assert counter.sites["pos"] == n * 3 * bconfig.d + n * bconfig.d * bconfig.d

    def test_local_attention_doubles_with_patch_size(self):
        # n divisible by both patch sizes: tally is exactly linear in p.
        n = 64
        cloud = grid_cloud(n)
        tallies = {}
        for p in (4, 8):
            bconfig, store, attachment = make_model("linear", n=n, p=p)
            counter = ins.count_pass(cloud, store, bconfig, attachment)
            tallies[p] = counter.total(".local_attn")
        ratio = tallies[8] / tallies[4]
        assert abs(ratio - 2.0) <= 0.04 * 2.0

    def test_context_adapter_doubles_with_points(self):
        tallies = {}
        for n in (64, 128):
            bconfig, store, attachment = make_model("gem_ca_only", n=n, p=8)
            counter = ins.count_pass(grid_cloud(n), store, bconfig, attachment)
            tallies[n] = counter.total(".ca.")
        ratio = tallies[128] / tallies[64]
        assert 1.98 <= ratio <= 2.02

    def test_context_adapter_tally_matches_closed_form(self):
        n, d, r, m = 64, 32, 4, 2
        bconfig, store, attachment = make_model("gem_ca_only", n=n, d=d, rank=r, tokens=m)
        counter = ins.count_pass(grid_cloud(n), store, bconfig, attachment)
        per_block = (
            3 * n * d * r
            + (m * r * r + 2 * m * n * r)
            + (2 * m * r * r + 2 * n * m * r + n * r * d)
        )
        assert counter.total(".ca.") == bconfig.blocks * per_block

    def test_spatial_adapter_linear_at_fixed_density(self):
        # Disjoint union of a cloud with a far translate doubles both n and
        # the occupied voxel count, so the tally doubles exactly.
        n = 60
        base = grid_cloud(n, seed=3)
        shifted = PointCloud(
            coords=np.concatenate([base.coords, base.coords + 100.0]),
            feats=np.concatenate([base.feats, base.feats]),
            labels=np.concatenate([base.labels, base.labels]),
            num_classes=base.num_classes,
        )
        tallies = []
        for cloud in (base, shifted):
            bconfig, store, attachment = make_model("gem_sa_only", n=cloud.n, p=4)
            counter = ins.count_pass(cloud, store, bconfig, attachment)
            tallies.append(counter.sites["sa"])
        assert tallies[1] == 2 * tallies[0]

    def test_lora_site_counts(self):
        n, d, r = 64, 32, 4
        bconfig, store, attachment = make_model("lora", n=n, d=d, rank=r)
        counter = ins.count_pass(grid_cloud(n), store, bconfig, attachment)
        for i in range(bconfig.blocks):
            assert counter.sites[f"block{i}.lora"] == 4 * n * d * r

    def test_counting_does_not_change_outputs(self):
        n = 48
        cloud = grid_cloud(n)
        for method in peft.METHODS:
            bconfig, store, attachment = make_model(method, n=n)
            part = serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
            nbr = build_neighbor_index(cloud, bconfig.voxel_size)

            def logits_and_grads(tracer):
                out = bb.forward(cloud, part, nbr, attachment, store, bconfig, tracer=tracer)
                ag.backward(ag.cross_entropy(out.logits, cloud.labels))
                grads = {name: t.grad.tobytes() for name, t in store.trainable_items()}
                store.zero_grads()
                return out.logits.data.tobytes(), grads

            tracer = ins.OpCounter()
            assert logits_and_grads(None) == logits_and_grads(tracer), method
            assert tracer.arrays  # the traced pass really kept copies

    def test_counter_monotone_within_pass(self):
        class Watch(ins.OpCounter):
            def __init__(self):
                super().__init__()
                self.totals = []

            def record(self, site, madds=0, **arrays):
                assert madds > 0 or arrays
                super().record(site, madds, **arrays)
                self.totals.append(self.total())

        n = 48
        bconfig, store, attachment = make_model("gem", n=n)
        cloud = grid_cloud(n)
        part = serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        nbr = build_neighbor_index(cloud, bconfig.voxel_size)
        watch = Watch()
        bb.forward(cloud, part, nbr, attachment, store, bconfig, tracer=watch)
        assert watch.totals == sorted(watch.totals)


class TestJsDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert ins.js_divergence(p, p) == 0.0

    def test_disjoint_is_log_two(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert abs(ins.js_divergence(p, q) - np.log(2.0)) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 1.0, size=8)
        q = rng.uniform(0.1, 1.0, size=8)
        assert abs(ins.js_divergence(p, q) - ins.js_divergence(q, p)) < 1e-15

    def test_size_mismatch_rejected(self):
        with pytest.raises(UsageError):
            ins.js_divergence(np.ones(3), np.ones(4))


class TestDumpAttention:
    def test_stage1_rows_per_block(self, tmp_path):
        n, m = 48, 1
        bconfig, store, attachment = make_model("gem_ca_only", n=n, tokens=m)
        path = tmp_path / "attn.csv"
        ins.dump_attention(grid_cloud(n), store, bconfig, attachment, path)
        dump = ins.load_attention_dump(path)
        assert sorted(dump) == list(range(bconfig.blocks))
        for block in dump.values():
            assert sorted(block) == list(range(m))
            for token_rows in block.values():
                assert sorted(token_rows) == list(range(n))

    def test_stage1_rows_sum_to_one(self, tmp_path):
        n = 48
        bconfig, store, attachment = make_model("gem_ca_only", n=n, tokens=3)
        path = tmp_path / "attn.csv"
        ins.dump_attention(grid_cloud(n), store, bconfig, attachment, path)
        dump = ins.load_attention_dump(path)
        for block in dump.values():
            for token_rows in block.values():
                assert abs(sum(token_rows.values()) - 1.0) < 1e-9

    def test_distinct_clouds_give_different_rows(self, tmp_path):
        n = 48
        bconfig, store, attachment = make_model("gem_ca_only", n=n, tokens=2)
        rows = []
        for seed in (0, 7):
            path = tmp_path / f"attn{seed}.csv"
            ins.dump_attention(grid_cloud(n, seed=seed), store, bconfig, attachment, path)
            dump = ins.load_attention_dump(path)
            row = dump[0][0]
            rows.append(np.array([row[j] for j in range(n)]))
        assert ins.js_divergence(rows[0], rows[1]) > 0.0

    def test_prompt_params_are_cloud_invariant(self, tmp_path):
        n = 48
        bconfig, store, attachment = make_model("prompt", n=n, tokens=2)
        before = store["peft.block0.prompt.pk"].data.tobytes()
        for seed in (0, 7):
            ins.dump_attention(
                grid_cloud(n, seed=seed), store, bconfig, attachment, tmp_path / f"p{seed}.csv"
            )
        assert store["peft.block0.prompt.pk"].data.tobytes() == before

    def test_prompt_dump_has_token_rows(self, tmp_path):
        n, m = 48, 2
        bconfig, store, attachment = make_model("prompt", n=n, tokens=m)
        path = tmp_path / "attn.csv"
        ins.dump_attention(grid_cloud(n), store, bconfig, attachment, path)
        dump = ins.load_attention_dump(path)
        assert sorted(dump) == list(range(bconfig.blocks))
        for block in dump.values():
            assert sorted(block) == list(range(m))
            for token_rows in block.values():
                assert sorted(token_rows) == list(range(n))
                # prompt columns are a slice of a softmax row, not a full row
                assert all(0.0 <= w <= 1.0 for w in token_rows.values())

    @pytest.mark.parametrize("method", ["gem_ca_only", "prompt"])
    def test_only_insertion_blocks_are_dumped(self, tmp_path, method):
        n = 48
        bconfig = bb.BackboneConfig(d=32, blocks=2, patch_size=8, heads=4, voxel_size=1.0)
        store = bb.init_backbone(bconfig, seed=0)
        pconfig = peft.PeftConfig(method=method, rank=4, tokens=2, blocks=(1,))
        attachment = peft.attach(pconfig, store, bconfig, seed=0)
        path = tmp_path / "attn.csv"
        ins.dump_attention(grid_cloud(n), store, bconfig, attachment, path)
        blocks = [ln for ln in path.read_text().splitlines() if ln.startswith("# block")]
        assert blocks == ["# block 1"]

    def test_methods_without_global_tokens_rejected(self, tmp_path):
        n = 32
        for method in ("linear", "bitfit", "adapter", "lora", "gem_sa_only"):
            bconfig, store, attachment = make_model(method, n=n)
            with pytest.raises(UsageError, match="global tokens"):
                ins.dump_attention(
                    grid_cloud(n), store, bconfig, attachment, tmp_path / "x.csv"
                )

    def test_dump_embeds_command_and_hash(self, tmp_path):
        n = 32
        bconfig, store, attachment = make_model("gem_ca_only", n=n)
        path = tmp_path / "attn.csv"
        ins.dump_attention(
            grid_cloud(n), store, bconfig, attachment, path, command="dump-attn --x 1"
        )
        text = path.read_text()
        assert text.startswith("# cmd: dump-attn --x 1\n# hash: ")

    def test_dump_is_deterministic(self, tmp_path):
        n = 32
        bconfig, store, attachment = make_model("gem_ca_only", n=n)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ins.dump_attention(grid_cloud(n), store, bconfig, attachment, a)
        ins.dump_attention(grid_cloud(n), store, bconfig, attachment, b)
        assert a.read_bytes() == b.read_bytes()


class TestLoadAttentionDump:
    @pytest.mark.parametrize(
        "body, line",
        [
            ("token_id,point_id,weight\n0,1,0.5\n", 2),  # a row before any block header
            ("token_id,point_id,weight\n# block 0\n0,1\n", 3),  # a row with two fields
            ("token_id,point_id,weight\n# block x\n", 2),  # a block id that is no integer
        ],
        ids=["row-before-block", "two-fields", "block-id"],
    )
    def test_malformed_line_raises_data_error(self, tmp_path, body, line):
        path = tmp_path / "attn.csv"
        path.write_text(body)
        with pytest.raises(DataError, match=rf"attn\.csv line {line}:"):
            ins.load_attention_dump(path)
