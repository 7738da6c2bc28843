"""Resuming forwards from a cached frozen prefix changes no result.

A fine-tune computes each cloud's frozen prefix once (`frozen_depth`
blocks) and starts every later forward from it.  The oracle is the same
run with the cache turned off, by making the attachment report depth 0.
"""

import numpy as np
import pytest

from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr
from pointpeft.errors import ContractError


def four_blocks():
    return bb.BackboneConfig(
        d=16, blocks=4, patch_size=8, heads=2, ffn_mult=2, num_classes=3,
        in_channels=6, voxel_size=0.5, stages=((0, 2), (2, 4)),
    )


def clouds(count, seed):
    return tr.generate_dataset(tr.target_spec(points_per_class=12), count, seed)


def perturbed_attachment(config, bconfig, seed=0):
    """Attach, then make every zero-initialized up-projection nonzero so the
    attachment really changes the logits."""
    store = bb.init_backbone(bconfig, 3)
    attachment = pf.attach(config, store, bconfig, seed=seed)
    rng = np.random.default_rng(seed)
    for name, t in store.items():
        if name.startswith("peft."):
            t.data[...] = rng.uniform(-0.3, 0.3, t.shape)
    return store, attachment


EXPECTED_DEPTH = {
    ("linear", ()): 4, ("linear", (2, 3)): 4,
    ("bitfit", ()): 0, ("bitfit", (2, 3)): 0,
    ("adapter", ()): 1, ("adapter", (2, 3)): 3,
    ("lora", ()): 0, ("lora", (2, 3)): 2,
    ("prompt", ()): 0, ("prompt", (2, 3)): 2,
    ("gem", ()): 0, ("gem", (2, 3)): 0,
    ("gem_sa_only", ()): 0, ("gem_sa_only", (2, 3)): 0,
    ("gem_ca_only", ()): 0, ("gem_ca_only", (2, 3)): 2,
}


@pytest.mark.parametrize("method,blocks", sorted(EXPECTED_DEPTH))
def test_frozen_depth(method, blocks):
    bconfig = four_blocks()
    config = pf.PeftConfig(method=method, rank=2, tokens=2, blocks=blocks)
    _, attachment = perturbed_attachment(config, bconfig)
    assert attachment.frozen_depth() == EXPECTED_DEPTH[(method, blocks)]


@pytest.mark.parametrize(
    "method,blocks", [key for key, depth in sorted(EXPECTED_DEPTH.items()) if depth > 0]
)
def test_resumed_logits_equal_full_pass(method, blocks):
    bconfig = four_blocks()
    config = pf.PeftConfig(method=method, rank=2, tokens=2, blocks=blocks)
    store, attachment = perturbed_attachment(config, bconfig)
    depth = attachment.frozen_depth()
    for pc in tr.prepare(clouds(2, seed=5), bconfig):
        full = bb.forward(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig)
        prefix = bb.frozen_prefix(pc.cloud, pc.part, store, bconfig, depth)
        assert not prefix.requires_grad and prefix._parents == ()
        resumed = bb.forward(
            pc.cloud, pc.part, pc.nbr, attachment, store, bconfig, resume=(depth, prefix)
        )
        assert resumed.logits.data.tobytes() == full.logits.data.tobytes()


def test_resume_rejects_bad_depth_and_shape():
    bconfig = four_blocks()
    store = bb.init_backbone(bconfig, 3)
    pc = tr.prepare(clouds(1, seed=6), bconfig)[0]
    with pytest.raises(ContractError):
        bb.frozen_prefix(pc.cloud, pc.part, store, bconfig, 0)
    with pytest.raises(ContractError):
        bb.frozen_prefix(pc.cloud, pc.part, store, bconfig, bconfig.blocks + 1)
    prefix = bb.frozen_prefix(pc.cloud, pc.part, store, bconfig, 2)
    with pytest.raises(ContractError):
        bb.forward(pc.cloud, pc.part, None, None, store, bconfig, resume=(2, prefix.data[:-1]))


def run_finetune(config, eval_split, seed=4):
    bconfig = four_blocks()
    backbone = bb.init_backbone(bconfig, 3)
    tconfig = tr.TrainConfig(epochs=2, batch_size=2, seed=seed, learning_rate=3e-3)
    eval_clouds = clouds(2, seed=8) if eval_split else None
    store, _, record = tr.finetune(
        backbone, bconfig, config, clouds(3, seed=7), tconfig, eval_clouds=eval_clouds
    )
    text = "".join(ln for ln in record.to_text().splitlines(True) if not ln.startswith("wall_time_s"))
    return store.byte_snapshot(), text


CASES = [
    pf.PeftConfig(method=m, rank=2, tokens=2, blocks=b)
    for m in pf.METHODS
    for b in ((), (2, 3))
] + [
    pf.PeftConfig(method="gem_ca_only", rank=2, tokens=2, sharing=s, blocks=b)
    for s in ("per_block", "per_stage")
    for b in ((), (2, 3))
]


@pytest.mark.parametrize("eval_split", [False, True], ids=["no-eval", "eval"])
@pytest.mark.parametrize("config", CASES, ids=lambda c: f"{c.method}-{c.sharing}-{c.blocks}")
def test_finetune_matches_uncached_run(config, eval_split, monkeypatch):
    cached = run_finetune(config, eval_split)
    monkeypatch.setattr(pf.PeftAttachment, "frozen_depth", lambda self: 0)
    uncached = run_finetune(config, eval_split)
    assert cached[1] == uncached[1]
    assert cached[0] == uncached[0]


def test_linear_probe_runs_the_frozen_blocks_once_per_cloud(monkeypatch):
    """E epochs over N training and M eval clouds run each block on each
    cloud once, not once per epoch."""
    calls = []
    original = bb.local_attention

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bb, "local_attention", counting)
    bconfig = four_blocks()
    train, held_out = clouds(3, seed=9), clouds(2, seed=10)
    tr.finetune(
        bb.init_backbone(bconfig, 3), bconfig, pf.PeftConfig(method="linear"), train,
        tr.TrainConfig(epochs=3, batch_size=2, seed=1), eval_clouds=held_out,
    )
    assert len(calls) == bconfig.blocks * (len(train) + len(held_out))
