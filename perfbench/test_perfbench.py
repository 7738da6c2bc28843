"""Tests of the benchmark's own arithmetic; no workload runs.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import rounds  # noqa: E402
import spans  # noqa: E402
from pointpeft import backbone as bb  # noqa: E402
from pointpeft import peft as pf  # noqa: E402
from pointpeft import training as tr  # noqa: E402


# ---------------------------------------------------------------------------
# self time from nested spans


def test_self_times_subtract_direct_children_only():
    s = [
        ["phase", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["other", 20.0, 21.0, -1],
    ]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert spans.roots(s) == [0, 0, 0, 0, 4]
    assert spans.under(s, "a") == [False, False, True, False, False]


def test_recorded_self_times_add_up_to_the_root():
    fake = types.SimpleNamespace()
    fake.leaf = lambda: sum(range(1000))
    fake.middle = lambda: [fake.leaf() for _ in range(3)]
    tracer = spans.Tracer()
    original = fake.leaf
    tracer.install([(fake, "leaf", "leaf"), (fake, "middle", "middle")])
    with tracer.span("phase"):
        fake.middle()
        fake.leaf()
    tracer.uninstall()
    assert fake.leaf is original
    names = [s[0] for s in tracer.spans]
    assert names == ["phase", "middle", "leaf", "leaf", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 1, 0]
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[2] - root[1], rel=0, abs=1e-12)


def test_probe_runs_outside_the_span():
    fake = types.SimpleNamespace(f=lambda x: x + 1)
    seen = []
    tracer = spans.Tracer()
    tracer.install([(fake, "f", "f")], probes={"f": lambda x: seen.append(len(tracer._open))})
    assert fake.f(1) == 2
    tracer.uninstall()
    assert seen == [0]


# ---------------------------------------------------------------------------
# the independent confusion-matrix mIoU


def test_miou_by_hand():
    labels = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([0, 1, 1, 1, 0, 2])
    mat = oracles.confusion(pred, labels, 4)  # class 3 absent: skipped
    assert mat.tolist() == [[1, 1, 0, 0], [0, 2, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]]
    assert oracles.miou(mat) == pytest.approx((1 / 3 + 2 / 3 + 1 / 2) / 3, abs=1e-15)


def test_miou_agrees_with_the_library_on_random_labels():
    rng = np.random.default_rng(0)
    for _ in range(20):
        labels = rng.integers(0, 3, 200)
        pred = rng.integers(0, 3, 200)
        cm = tr.ConfusionMatrix(3)
        cm.update(pred, labels)
        assert oracles.miou(oracles.confusion(pred, labels, 3)) == cm.metrics()["miou"]


# ---------------------------------------------------------------------------
# the most-common-label floor


def test_majority_floor_of_the_target_label_mix():
    # target scenes: floor, wall, box and sphere at equal counts, box and
    # sphere share label 2
    assert oracles.majority_miou([36, 36, 72]) == pytest.approx(1 / 6, abs=1e-15)


def test_majority_floor_is_the_miou_of_predicting_that_label():
    labels = np.array([0] * 5 + [1] * 3 + [2] * 12)
    floor = oracles.majority_miou(np.bincount(labels, minlength=4))
    constant = np.full(labels.size, 2)
    assert floor == pytest.approx(oracles.miou(oracles.confusion(constant, labels, 4)), abs=1e-15)


# ---------------------------------------------------------------------------
# the closed-form gem parameter count


def test_gem_count_at_the_acceptance_config():
    assert oracles.gem_trainable_count(d=32, r=8, blocks=4, m=4, classes=3) == 7235


@pytest.mark.parametrize(
    "d, blocks, r, m", [(32, 4, 8, 4), (16, 2, 4, 2), (64, 8, 8, 4)]
)
def test_gem_count_matches_an_attached_store(d, blocks, r, m):
    bconfig = bb.BackboneConfig(d=d, blocks=blocks, heads=4)
    store = bb.init_backbone(bconfig, seed=0)
    pf.attach(pf.PeftConfig(method="gem", rank=r, tokens=m), store, bconfig)
    enumerated = sum(t.numel for n, t in store.items() if not store.frozen(n))
    assert enumerated == oracles.gem_trainable_count(d, r, blocks, m, bconfig.num_classes)


# ---------------------------------------------------------------------------
# multiply-add groups


def test_every_count_site_falls_in_one_group():
    bconfig = bb.BackboneConfig(d=16, blocks=2, heads=4)
    cloud = tr.generate_dataset(tr.target_spec(12), 1, 5)[0]
    seen = set()
    for method in ("linear", "bitfit", "adapter", "lora", "prompt", "gem"):
        store = bb.init_backbone(bconfig, seed=0)
        attachment = pf.attach(pf.PeftConfig(method=method, rank=4, tokens=2), store, bconfig)
        sites = rounds.ins.count_pass(cloud, store, bconfig, attachment).sites
        grouped = rounds.group_madds(sites)
        assert sum(grouped.values()) == sum(sites.values())
        seen |= {g for g, v in grouped.items() if v}
    assert seen == set(rounds.MADD_GROUPS)


def test_a_site_in_no_group_raises():
    with pytest.raises(ValueError, match="block0.new_branch"):
        rounds.group_madds({"head": 5, "block0.new_branch": 7})


# ---------------------------------------------------------------------------
# end-to-end metrics from rounds


def test_end_to_end_metrics_are_medians_of_round_values():
    made = []
    for i, scale in enumerate((1.0, 3.0, 2.0)):
        r = rounds.Round(index=i, traced=False)
        r.times = {"setup": 0.6 * scale, "pretrain": scale, "finetune": 2 * scale, "eval": scale / 2}
        r.setups = [0.1 * scale, 0.2 * scale, 0.3 * scale]
        r.points = {"pretrain": 600, "finetune": 1200, "eval": 300}
        r.mious = [0.4 * scale, 0.6 * scale]
        made.append(r)
    got = rounds.end_to_end(made)
    # the median of the per-round mean setups, not of all setups (0.3)
    assert got["setup_s"][0] == pytest.approx(0.4)
    assert got["pretrain_points_per_s"][0] == pytest.approx(300.0)
    assert got["finetune_points_per_s"][0] == pytest.approx(300.0)
    assert got["eval_points_per_s"][0] == pytest.approx(300.0)
    assert got["miou"][0] == pytest.approx(1.0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(got)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in got.values()]
