"""Acceptance suite.

Twelve numbered criteria, one test each.  Every test prints a single
`[criterion NN] name: PASS|FAIL` line (bypassing capture) and enforces its
wall-clock budget.  Expected values come from closed forms, hand-computed
fixtures, or independent plain-numpy oracles, never from the implementation
under test.
"""

import contextlib
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pointpeft.autograd as ag
import pointpeft.backbone as bb
import pointpeft.cli as cli
import pointpeft.geometry as geo
import pointpeft.instrumentation as ins
import pointpeft.peft as pf
import pointpeft.training as tr


# one (number, name, passed, seconds) row per criterion; a conftest hook
# prints these as the end-of-run summary
RESULTS: list[tuple[int, str, bool, float]] = []


def _report(num: int, name: str, ok: bool, elapsed: float) -> None:
    RESULTS.append((num, name, ok, elapsed))
    print(
        f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)",
        file=sys.__stdout__,
        flush=True,
    )


@contextlib.contextmanager
def criterion(num: int, name: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(num, name, False, time.perf_counter() - t0)
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > limit_s:
        _report(num, name, False, elapsed)
        raise AssertionError(f"criterion {num} took {elapsed:.1f}s, limit {limit_s:.0f}s")
    _report(num, name, True, elapsed)


def scene(seed: int, ppc: int) -> geo.PointCloud:
    return geo.generate_scene(seed, tr.target_spec(ppc))


# ---------------------------------------------------------------------------
# shared desk-scale transfer pipeline (criteria 8 and 9)

TRANSFER_BCONFIG = dict(
    d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5
)

_TRANSFER: dict | None = None


def transfer_pipeline() -> dict:
    """Pretrain once, fine-tune four methods over three seeds and score each
    tuned store once on the held-out split; memoized so criterion 8 pays the
    cost and criterion 9 reuses the artifacts."""
    global _TRANSFER
    if _TRANSFER is not None:
        return _TRANSFER
    bconfig = bb.BackboneConfig(**TRANSFER_BCONFIG)
    src = tr.generate_dataset(tr.source_spec(48), 64, seed=101)
    tgt = tr.generate_dataset(tr.target_spec(36), 32, seed=202)
    tgt_eval = tr.generate_dataset(tr.target_spec(36), 16, seed=303)
    store, _ = tr.pretrain(
        src, bconfig, tr.TrainConfig(epochs=50, seed=0, learning_rate=1e-3)
    )
    # scored once after training: bitwise the last epoch's mIoU of a run with
    # `eval_clouds=tgt_eval` (tests/test_training.py::TestEvaluateOnce)
    held_out = tr.prepare(tgt_eval, bconfig, need_neighbors=True)
    mious: dict[str, list[float]] = {}
    for method in ("linear", "gem_sa_only", "gem_ca_only", "gem"):
        per_seed = []
        for seed in (0, 1, 2):
            pconfig = pf.PeftConfig(method=method, rank=8, tokens=4, sharing="global")
            tuned, attachment, _ = tr.finetune(
                store, bconfig, pconfig, tgt,
                tr.TrainConfig(epochs=40, seed=seed, learning_rate=3e-3),
            )
            per_seed.append(tr.evaluate(tuned, attachment, held_out, bconfig)["miou"])
        mious[method] = per_seed

    root = Path(tempfile.mkdtemp(prefix="pointpeft_acceptance_"))
    ckpt = root / "bb.ckpt"
    bb.save_backbone(ckpt, store, bconfig)
    data_dir = root / "tgt"
    tr.write_dataset(data_dir, tr.target_spec(36), 32, seed=202)
    _TRANSFER = {
        "bconfig": bconfig, "store": store, "mious": mious,
        "ckpt": ckpt, "data": data_dir, "root": root, "target": tgt,
    }
    return _TRANSFER


# ---------------------------------------------------------------------------
# 1. Spatial Adapter parameter-count formula


def test_criterion_01_sa_param_formula():
    with criterion(1, "sa-param-formula", 1.0):
        for d, r, want in ((64, 8, 2752), (32, 4, 688), (64, 16, 8960)):
            assert want == 2 * r * d + 27 * r * r  # closed form restated
            bconfig = bb.BackboneConfig(d=d, blocks=2, heads=4)
            store = bb.init_backbone(bconfig, seed=0)
            pf.attach(
                pf.PeftConfig(method="gem_sa_only", rank=r), store, bconfig, seed=0
            )
            enumerated = sum(
                t.data.size for name, t in store.items() if name.startswith("peft.")
            )
            assert enumerated == want


# ---------------------------------------------------------------------------
# 2. Zero-init identity


def test_criterion_02_zero_init_identity():
    with criterion(2, "zero-init-identity", 10.0):
        bconfig = bb.BackboneConfig(
            d=32, blocks=2, heads=4, patch_size=8, num_classes=3, voxel_size=0.5
        )
        base = bb.init_backbone(bconfig, seed=0)
        for i in range(10):
            cloud = scene(seed=40 + i, ppc=6 + 5 * i)  # n from 24 up to 204
            assert cloud.n <= 256
            part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
            nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)
            frozen = bb.forward(cloud, part, nbr, None, base, bconfig).logits.data
            for method in ("adapter", "lora", "gem", "gem_sa_only", "gem_ca_only"):
                store = base.clone()
                attachment = pf.attach(
                    pf.PeftConfig(method=method, rank=4, tokens=2), store, bconfig,
                    seed=i,
                )
                got = bb.forward(cloud, part, nbr, attachment, store, bconfig).logits.data
                assert np.max(np.abs(got - frozen)) < 1e-12


# ---------------------------------------------------------------------------
# 3. Gradient fidelity over every trainable scalar


def test_criterion_03_gradient_fidelity():
    with criterion(3, "gradient-fidelity", 120.0):
        bconfig = bb.BackboneConfig(
            d=16, blocks=2, heads=4, patch_size=8, num_classes=3, voxel_size=0.5
        )
        store = bb.init_backbone(bconfig, seed=1)
        attachment = pf.attach(
            pf.PeftConfig(method="gem", rank=4, tokens=2, sharing="global"),
            store, bconfig, seed=1,
        )
        cloud = scene(seed=77, ppc=8)  # n = 32
        assert cloud.n == 32
        part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)

        # move zero-initialized up-projections off zero so every parameter
        # carries signal through the loss
        rng = np.random.default_rng(9)
        for name, t in store.trainable_items():
            if name.endswith((".up", "_up")):
                t.data[:] = rng.uniform(-0.05, 0.05, size=t.shape)

        def loss():
            out = bb.forward(cloud, part, nbr, attachment, store, bconfig)
            return ag.cross_entropy(out.logits, cloud.labels)

        worst = ag.check_gradients(loss, store, h=1e-5)
        assert worst < 1e-4


# ---------------------------------------------------------------------------
# 4. Local attention equals dense attention under a block-diagonal mask


def _dense_block_attention(x, store, prefix, heads, allow):
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


def test_criterion_04_local_attention_oracle():
    with criterion(4, "local-attention-oracle", 5.0):
        for case in range(20):
            rng = np.random.default_rng(500 + case)
            n = int(rng.integers(8, 65))
            p = (4, 16)[case % 2]
            bconfig = bb.BackboneConfig(
                d=16, blocks=1, heads=4, patch_size=p, num_classes=3, voxel_size=0.5
            )
            store = bb.init_backbone(bconfig, seed=case)
            coords = rng.uniform(0, 4, (n, 3))
            cloud = geo.PointCloud(
                coords=coords, feats=np.hstack([coords, rng.normal(size=(n, 3))])
            )
            part = geo.serialize(cloud, bconfig.voxel_size, p)
            x = rng.normal(size=(n, 16))

            patch_of = np.full(n, -1)
            for pi in range(part.num_patches):
                for slot in range(p):
                    pt = part.index[pi, slot]
                    if pt >= 0:
                        patch_of[pt] = pi
            allow = patch_of[:, None] == patch_of[None, :]
            want = _dense_block_attention(x, store, "backbone.block0.attn", 4, allow)

            got = bb.local_attention(
                ag.Tensor(x), part, store, "backbone.block0.attn", 4
            ).data
            assert np.max(np.abs(got - want)) <= 1e-10


# ---------------------------------------------------------------------------
# 5. Freeze discipline for every method


def test_criterion_05_freeze_discipline():
    with criterion(5, "freeze-discipline", 120.0):
        bconfig = bb.BackboneConfig(
            d=16, blocks=2, heads=2, patch_size=8, num_classes=3, voxel_size=0.5
        )
        base = bb.init_backbone(bconfig, seed=5)
        before = {
            name: base[name].data.tobytes()
            for name in base.names()
            if name.startswith("backbone.")
        }
        clouds = tr.generate_dataset(tr.target_spec(8), 4, seed=55)
        for method in pf.METHODS:
            pconfig = pf.PeftConfig(method=method, rank=2, tokens=2)
            store, _, _ = tr.finetune(
                base, bconfig, pconfig, clouds,
                tr.TrainConfig(epochs=5, seed=0, batch_size=4),
            )
            changed = {
                name for name, blob in before.items()
                if store[name].data.tobytes() != blob
            }
            if method == "bitfit":
                want = {
                    name for name in before
                    if name.endswith(".bias") or name.endswith(".shift")
                }
                assert changed == want
            else:
                assert changed == set()


# ---------------------------------------------------------------------------
# 6. Complexity instrumentation ratios


def _grid_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    side = int(np.ceil(n ** (1.0 / 3.0)))
    pts = [(x, y, z) for x in range(side) for y in range(side) for z in range(side)]
    coords = np.array(pts[:n], dtype=np.float64) + rng.uniform(0.1, 0.4, (n, 3))
    feats = np.concatenate([coords, rng.normal(size=(n, 3))], axis=1)
    return geo.PointCloud(coords=coords, feats=feats)


def test_criterion_06_complexity_scaling():
    with criterion(6, "complexity-scaling", 30.0):
        # context adapter: tallies at n and 2n
        ca_tally = {}
        for n in (64, 128):
            bconfig = bb.BackboneConfig(
                d=32, blocks=2, heads=4, patch_size=8, num_classes=3, voxel_size=1.0
            )
            store = bb.init_backbone(bconfig, seed=0)
            attachment = pf.attach(
                pf.PeftConfig(method="gem_ca_only", rank=4, tokens=2), store, bconfig,
                seed=0,
            )
            counter = ins.count_pass(_grid_cloud(n), store, bconfig, attachment)
            ca_tally[n] = counter.total(".ca.")
        assert 1.98 <= ca_tally[128] / ca_tally[64] <= 2.02

        # local attention: tallies at p and 2p with n fixed and divisible
        attn_tally = {}
        for p in (4, 8):
            bconfig = bb.BackboneConfig(
                d=32, blocks=2, heads=4, patch_size=p, num_classes=3, voxel_size=1.0
            )
            store = bb.init_backbone(bconfig, seed=0)
            counter = ins.count_pass(_grid_cloud(64), store, bconfig, None)
            attn_tally[p] = counter.total(".local_attn")
        assert 1.96 <= attn_tally[8] / attn_tally[4] <= 2.04


# ---------------------------------------------------------------------------
# 7. Globality contrast: SA is local, CA is global


def test_criterion_07_globality_contrast():
    with criterion(7, "globality-contrast", 30.0):
        rng = np.random.default_rng(7)
        near = rng.uniform(0.1, 0.4, (8, 3))
        far = near + 50.0  # hundreds of voxels away, outside any stencil
        coords = np.vstack([near, far])
        feats = np.hstack([coords, rng.normal(size=(16, 3))])
        cloud = geo.PointCloud(coords=coords, feats=feats)

        bconfig = bb.BackboneConfig(
            d=16, blocks=2, heads=4, patch_size=8, num_classes=3, voxel_size=0.5
        )
        part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        nbr = geo.build_neighbor_index(cloud, bconfig.voxel_size)
        probe = int(part.index[0, 0])
        assert probe < 8  # probe sits in the near cluster
        far_rows = part.index[1][~part.pad_mask[1]]
        assert all(r >= 8 for r in far_rows)

        bumped = geo.PointCloud(coords=coords, feats=feats.copy())
        bumped.feats[probe, 0] += 1e-3

        def sensitivity(method):
            store = bb.init_backbone(bconfig, seed=3)
            attachment = pf.attach(
                pf.PeftConfig(method=method, rank=4, tokens=2), store, bconfig, seed=3
            )
            up_rng = np.random.default_rng(13)
            names = ["peft.sa.up"] if method == "gem_sa_only" else [
                f"peft.block{i}.ca.up" for i in range(2)
            ]
            for name in names:  # make the branch non-trivial
                store[name].data[:] = up_rng.uniform(-0.1, 0.1, store[name].shape)
            a = bb.forward(cloud, part, nbr, attachment, store, bconfig).logits.data
            b = bb.forward(bumped, part, nbr, attachment, store, bconfig).logits.data
            return np.abs(b - a)

        local = sensitivity("gem_sa_only")
        assert np.all(local[far_rows] == 0.0)
        assert np.max(local[probe]) > 0.0  # the perturbation itself registered

        glob = sensitivity("gem")
        assert np.max(glob[far_rows]) > 0.0


# ---------------------------------------------------------------------------
# 8. Desk-scale transfer benefit


def test_criterion_08_transfer_benefit():
    with criterion(8, "transfer-benefit", 1200.0):
        transfer = transfer_pipeline()
        med = {k: float(np.median(v)) for k, v in transfer["mious"].items()}
        assert med["gem"] >= med["gem_sa_only"] >= med["linear"]
        assert med["gem"] >= med["gem_ca_only"] >= med["linear"]
        assert med["gem"] - med["linear"] >= 0.05


# ---------------------------------------------------------------------------
# 9. Ablation-grid structure plus latent propagation


def test_criterion_09_ablation_grid(tmp_path):
    with criterion(9, "ablation-grid", 1800.0):
        transfer = transfer_pipeline()
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "methods = gem_ca_only\nranks = 4\ntokens = 1, 4, 8\n"
            "sharing = per_block, per_stage, global\nseeds = 0\n"
            "epochs = 2\nbatch_size = 8\n"
        )
        out = tmp_path / "results.csv"
        code = cli.main([
            "sweep", "--config", str(cfg), "--backbone", str(transfer["ckpt"]),
            "--data", str(transfer["data"]), "--out", str(out),
        ])
        assert code == 0
        rows = [
            ln.split(",")
            for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("method,")
        ]
        assert len(rows) == 9  # tokens x sharing, all cells present
        assert {r[2] for r in rows} == {"1", "4", "8"}
        assert {r[3] for r in rows} == {"per_block", "per_stage", "global"}
        for r in rows:  # every cell completed with real metrics
            assert "nan" not in r
            assert 0.0 <= float(r[6]) <= 1.0

        # global sharing: each block's incoming latent equals the previous
        # block's L + L_c, byte for byte
        bconfig = transfer["bconfig"]
        store = transfer["store"].clone()
        attachment = pf.attach(
            pf.PeftConfig(method="gem_ca_only", rank=4, tokens=4, sharing="global"),
            store, bconfig, seed=0,
        )
        cloud = transfer["target"][0]
        part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
        tracer = ins.OpCounter()
        bb.forward(cloud, part, None, attachment, store, bconfig, tracer=tracer)
        trace = [tracer.arrays[f"block{i}.ca.stage1"] for i in range(bconfig.blocks)]
        for i in range(len(trace) - 1):
            assert np.array_equal(trace[i + 1]["L_in"], trace[i]["L_in"] + trace[i]["L_c"])


# ---------------------------------------------------------------------------
# 10. Metrics correctness on a hand-computed fixture


def test_criterion_10_metrics_correctness():
    with criterion(10, "metrics-correctness", 1.0):
        bconfig = bb.BackboneConfig(
            d=16, blocks=1, heads=2, patch_size=8, num_classes=3, voxel_size=0.5
        )
        store = bb.init_backbone(bconfig, seed=0)
        # rig the head so every point predicts class 0
        store["head.weight"].data[:] = 0.0
        store["head.bias"].data[:] = np.array([1.0, 0.0, 0.0])

        rng = np.random.default_rng(0)
        coords = rng.uniform(0, 4, (16, 3))
        cloud = geo.PointCloud(
            coords=coords,
            feats=np.hstack([coords, rng.normal(size=(16, 3))]),
            labels=np.array([0] * 8 + [1] * 8),
            num_classes=3,
        )
        prepared = tr.prepare([cloud], bconfig)
        metrics = tr.evaluate(store, None, prepared, bconfig)
        # confusion matrix: gt 0 -> pred 0 (8), gt 1 -> pred 0 (8), class 2 empty
        assert metrics["allacc"] == pytest.approx(0.5, abs=1e-15)
        assert metrics["macc"] == pytest.approx(0.5, abs=1e-15)
        assert metrics["miou"] == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# 11. Budget feasibility at tight fractions


def test_criterion_11_budget_feasibility():
    with criterion(11, "budget-feasibility", 5.0):
        bconfig = bb.BackboneConfig(d=512, blocks=8, heads=4)
        for budget in (0.001, 0.01):
            for method in ("adapter", "lora", "gem", "gem_sa_only", "gem_ca_only"):
                fit = pf.budget_fit(method, budget, bconfig)
                frac = pf.trainable_fraction(fit, bconfig)
                assert frac <= budget
                bigger = replace(fit, rank=fit.rank + 1)
                assert pf.trainable_fraction(bigger, bconfig) > budget


# ---------------------------------------------------------------------------
# 12. Attention-dump contract


def test_criterion_12_attention_dump(tmp_path):
    with criterion(12, "attention-dump", 10.0):
        bconfig = bb.BackboneConfig(
            d=32, blocks=2, heads=4, patch_size=8, num_classes=3, voxel_size=0.5
        )
        base = bb.init_backbone(bconfig, seed=0)
        store = base.clone()
        attachment = pf.attach(
            pf.PeftConfig(method="gem_ca_only", rank=4, tokens=3), store, bconfig,
            seed=0,
        )
        clouds = [scene(seed=11, ppc=12), scene(seed=12, ppc=12)]
        assert clouds[0].n == clouds[1].n
        rows = []
        for i, cloud in enumerate(clouds):
            path = tmp_path / f"attn{i}.csv"
            ins.dump_attention(cloud, store, bconfig, attachment, path)
            dump = ins.load_attention_dump(path)
            for block in dump.values():
                for token_rows in block.values():
                    assert abs(sum(token_rows.values()) - 1.0) < 1e-9
            first = dump[0][0]
            rows.append(np.array([first[j] for j in range(clouds[0].n)]))
        assert ins.js_divergence(rows[0], rows[1]) > 0.0

        # static prompt tokens, by contrast, never depend on the cloud
        pstore = base.clone()
        pattach = pf.attach(
            pf.PeftConfig(method="prompt", tokens=3), pstore, bconfig, seed=0
        )
        blobs = {
            name: t.data.tobytes()
            for name, t in pstore.items()
            if ".prompt." in name
        }
        for cloud in clouds:
            part = geo.serialize(cloud, bconfig.voxel_size, bconfig.patch_size)
            bb.forward(cloud, part, None, pattach, pstore, bconfig)
        for name, blob in blobs.items():
            assert pstore[name].data.tobytes() == blob
