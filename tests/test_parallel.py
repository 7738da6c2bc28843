"""Splitting each batch and evaluation with a forked helper changes no result.

`training._run_epochs` forks one helper per `pretrain` or `finetune` call
where `_split_allowed` says so; `training.evaluate` called on its own ships
its second half to one standing helper per process, forked at the first
such call.  These tests force the split on or off through that seam and
compare the bytes of both runs, then check that no training helper
outlives its call, whether it returns or raises, that the standing helper
serves call after call until an error on the parent's side or the process's
exit ends it, and that a helper's own process never uses it.
"""

import ast
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pointpeft
from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr
from pointpeft.errors import DataError, NumericError


def four_blocks():
    return bb.BackboneConfig(
        d=16, blocks=4, patch_size=8, heads=2, ffn_mult=2, num_classes=3,
        in_channels=6, voxel_size=0.5, stages=((0, 2), (2, 4)),
    )


def clouds(count, seed):
    return tr.generate_dataset(tr.target_spec(points_per_class=12), count, seed)


def split(monkeypatch, on: bool):
    monkeypatch.setattr(tr, "_split_allowed", lambda attachment, bconfig: on)


@pytest.fixture(autouse=True)
def no_helper_left():
    """After each test only the standing helper may run, and closing it
    leaves no child (`conftest.py` closes it again, for every module)."""
    yield
    standing = [tr._standing.proc] if tr._standing is not None else []
    assert multiprocessing.active_children() == standing
    tr._close_standing()
    assert multiprocessing.active_children() == []


def test_one_blas_thread_under_the_suite():
    assert pointpeft._one_blas_thread


def test_pretrain_checkpoint_bytes_equal(monkeypatch, tmp_path):
    bconfig = four_blocks()
    # 7 clouds in batches of 3: a split batch of 3 and a last batch of 1
    tconfig = tr.TrainConfig(epochs=2, batch_size=3, seed=5, learning_rate=1e-2)
    data = clouds(7, seed=3)
    written = []
    for on in (False, True):
        split(monkeypatch, on)
        store, record = tr.pretrain(data, bconfig, tconfig, eval_clouds=clouds(3, seed=4))
        path = tmp_path / f"split{on}.ckpt"
        bb.save_backbone(path, store, bconfig)
        written.append((path.read_bytes(), [e.loss for e in record.epochs]))
    assert written[0] == written[1]


def record_text(record):
    lines = record.to_text().splitlines(True)
    return "".join(ln for ln in lines if not ln.startswith("wall_time_s"))


def test_pretrain_without_eval_split_bytes_equal(monkeypatch, tmp_path):
    """Without an eval split the helper counts its share of each batch's
    predictions; the record and checkpoint match the serial run's."""
    bconfig = four_blocks()
    tconfig = tr.TrainConfig(epochs=3, batch_size=3, seed=5, learning_rate=1e-2)
    data = clouds(7, seed=3)
    written = []
    for on in (False, True):
        split(monkeypatch, on)
        store, record = tr.pretrain(data, bconfig, tconfig)
        path = tmp_path / f"split{on}.ckpt"
        bb.save_backbone(path, store, bconfig)
        written.append((path.read_bytes(), record_text(record)))
    assert written[0] == written[1]


def run_finetune(config, seed=4, eval_split=True):
    bconfig = four_blocks()
    backbone = bb.init_backbone(bconfig, 3)
    tconfig = tr.TrainConfig(epochs=2, batch_size=4, seed=seed, learning_rate=3e-3)
    eval_clouds = clouds(3, seed=8) if eval_split else None
    store, _, record = tr.finetune(
        backbone, bconfig, config, clouds(5, seed=7), tconfig, eval_clouds=eval_clouds
    )
    return store.byte_snapshot(), record_text(record)


@pytest.mark.parametrize(
    "sharing,eval_split",
    [("global", True), ("per_block", True), ("global", False), ("per_block", False)],
    ids=["global", "per_block", "global-no-eval", "per_block-no-eval"],
)
@pytest.mark.parametrize("method", pf.METHODS)
def test_finetune_bytes_equal(method, sharing, eval_split, monkeypatch):
    """Without an eval split the first epoch's metrics count the training
    forwards' predictions, the helper's share included."""
    config = pf.PeftConfig(method=method, rank=2, tokens=2, sharing=sharing)
    split(monkeypatch, False)
    serial = run_finetune(config, eval_split=eval_split)
    split(monkeypatch, True)
    assert run_finetune(config, eval_split=eval_split) == serial


def test_split_gives_the_parent_half(monkeypatch):
    """The forced split really splits: the parent runs the first half of
    each batch (rounded down) and of each evaluation, the helper the rest."""
    split(monkeypatch, True)
    seen = {"train": 0, "eval": 0}
    cloud_grads, confusion = tr._cloud_grads, tr._confusion

    def counted_grads(*args):
        seen["train"] += 1
        return cloud_grads(*args)

    def counted_confusion(store, attachment, prepared, *args):
        seen["eval"] += len(prepared)
        return confusion(store, attachment, prepared, *args)

    monkeypatch.setattr(tr, "_cloud_grads", counted_grads)
    monkeypatch.setattr(tr, "_confusion", counted_confusion)
    run_finetune(pf.PeftConfig(method="gem", rank=2, tokens=2))
    # per epoch: batches of 4 and 1 give the parent 2 + 1, evaluation of 3 gives 1
    assert seen == {"train": 2 * 3, "eval": 2 * 1}


class SpyHelper(tr._Helper):
    made = 0
    last = None

    def __init__(self, *args):
        SpyHelper.made += 1
        SpyHelper.last = self
        super().__init__(*args)


@pytest.mark.parametrize("method,forks", [("linear", 0), ("gem", 1), ("bitfit", 1)])
def test_only_passes_with_a_block_fork(method, forks, monkeypatch):
    if not tr._split_allowed(None, four_blocks()):
        pytest.skip("this host allows no split (one CPU or no fork)")
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    SpyHelper.made = 0
    run_finetune(pf.PeftConfig(method=method, rank=2, tokens=2))
    assert SpyHelper.made == forks


# ---------------------------------------------------------------------------
# evaluate called on its own


def tuned(method):
    """A fine-tuned store and attachment (or the plain backbone) and its config."""
    bconfig = four_blocks()
    backbone = bb.init_backbone(bconfig, 3)
    if method is None:
        return backbone, None, None, bconfig
    config = pf.PeftConfig(method=method, rank=2, tokens=2)
    tconfig = tr.TrainConfig(epochs=1, batch_size=4, seed=4, learning_rate=3e-3)
    store, attachment, _ = tr.finetune(backbone, bconfig, config, clouds(4, seed=7), tconfig)
    return store, attachment, config, bconfig


def held_out(count, config, bconfig, seed=13):
    need = config is not None and config.has_spatial
    return tr.prepare(clouds(count, seed), bconfig, need_neighbors=need)


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("method", [None, *pf.METHODS])
def test_evaluate_split_equals_serial(method, count, monkeypatch):
    store, attachment, config, bconfig = tuned(method)
    prepared = held_out(count, config, bconfig)
    split(monkeypatch, False)
    serial = tr.evaluate(store, attachment, prepared, bconfig)
    split(monkeypatch, True)
    assert tr.evaluate(store, attachment, prepared, bconfig) == serial


@pytest.mark.parametrize("count,forks", [(1, 0), (2, 1), (3, 1)])
def test_evaluate_forks_one_helper_from_two_clouds(count, forks, monkeypatch):
    split(monkeypatch, True)
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    SpyHelper.made = 0
    store, _, _, bconfig = tuned(None)
    tr.evaluate(store, None, held_out(count, None, bconfig), bconfig)
    assert SpyHelper.made == forks


def test_standalone_linear_evaluate_forks(monkeypatch):
    """With no resume point the pass runs every block, so `linear` splits
    here although its fine-tunes stay serial."""
    if not tr._split_allowed(None, four_blocks()):
        pytest.skip("this host allows no split (one CPU or no fork)")
    store, attachment, config, bconfig = tuned("linear")
    prepared = held_out(4, config, bconfig)
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    SpyHelper.made = 0
    tr.evaluate(store, attachment, prepared, bconfig)
    assert SpyHelper.made == 1


def test_evaluate_split_gives_the_parent_half(monkeypatch):
    split(monkeypatch, True)
    seen, confusion = [], tr._confusion

    def counted_confusion(store, attachment, prepared, *args):
        seen.append(len(prepared))
        return confusion(store, attachment, prepared, *args)

    monkeypatch.setattr(tr, "_confusion", counted_confusion)
    store, _, _, bconfig = tuned(None)
    tr.evaluate(store, None, held_out(5, None, bconfig), bconfig)
    assert seen == [2]  # the helper's 3 are counted in its own memory


def test_unlabeled_cloud_in_standalone_helper_half_raises_in_parent(monkeypatch):
    split(monkeypatch, True)
    store, _, _, bconfig = tuned(None)
    prepared = held_out(3, None, bconfig)
    prepared[2] = replace(prepared[2], cloud=replace(prepared[2].cloud, labels=None))
    with pytest.raises(DataError, match="evaluation requires annotated clouds"):
        tr.evaluate(store, None, prepared, bconfig)


def test_parent_error_in_standalone_evaluate_kills_the_helper(monkeypatch):
    split(monkeypatch, True)
    parent, confusion = os.getpid(), tr._confusion

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return confusion(*args)

    monkeypatch.setattr(tr, "_confusion", interrupted)
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    store, _, _, bconfig = tuned(None)
    with pytest.raises(KeyboardInterrupt):
        tr.evaluate(store, None, held_out(4, None, bconfig), bconfig)
    assert tr._standing is None
    assert SpyHelper.last.proc.exitcode == -signal.SIGKILL


class ExitCheckingHelper(tr._Helper):
    """Records whether the helper ran until its pipe closed, and its exit code."""

    ends: list = []

    def close(self, kill=False):
        alive = self.proc.is_alive()
        super().close(kill)
        ExitCheckingHelper.ends.append((alive, self.proc.exitcode))


@pytest.mark.parametrize("caller", ["evaluate", "finetune", "pretrain"])
def test_helper_exits_once_its_pipe_closes(caller, monkeypatch):
    """Every helper, standing or training, serves until the parent closes
    its pipe and then exits with code 0."""
    split(monkeypatch, True)
    monkeypatch.setattr(tr, "_Helper", ExitCheckingHelper)
    ExitCheckingHelper.ends = []
    if caller == "evaluate":
        store, _, _, bconfig = tuned(None)
        tr.evaluate(store, None, held_out(2, None, bconfig), bconfig)
        tr._close_standing()
    elif caller == "finetune":
        run_finetune(pf.PeftConfig(method="gem", rank=2, tokens=2))
    else:
        tr.pretrain(clouds(4, seed=3), four_blocks(), tr.TrainConfig(epochs=2, batch_size=2))
    assert ExitCheckingHelper.ends == [(True, 0)]


def first_batch(tconfig, count):
    order = ag.named_rng(tconfig.seed, "shuffle").permutation(count)
    return [int(i) for i in order[: tconfig.batch_size]]


def test_unlabeled_cloud_in_helper_share_raises_in_parent(monkeypatch):
    split(monkeypatch, True)
    bconfig = four_blocks()
    tconfig = tr.TrainConfig(epochs=1, batch_size=4, seed=2)
    data = clouds(4, seed=9)
    last = first_batch(tconfig, len(data))[-1]  # the helper's, never the parent's
    data[last] = replace(data[last], labels=None)
    with pytest.raises(DataError, match="training requires annotated clouds"):
        tr.pretrain(data, bconfig, tconfig)


def test_unlabeled_eval_cloud_in_helper_share_raises_in_parent(monkeypatch):
    split(monkeypatch, True)
    eval_clouds = clouds(2, seed=10)
    eval_clouds[1] = replace(eval_clouds[1], labels=None)
    with pytest.raises(DataError, match="evaluation requires annotated clouds"):
        tr.finetune(
            bb.init_backbone(four_blocks(), 3), four_blocks(), pf.PeftConfig(method="lora", rank=2),
            clouds(2, seed=11), tr.TrainConfig(epochs=1, batch_size=2), eval_clouds=eval_clouds,
        )


@pytest.mark.parametrize("on", [False, True], ids=["serial", "split"])
def test_diverging_pretrain_raises(on, monkeypatch):
    split(monkeypatch, on)
    tconfig = tr.TrainConfig(
        epochs=20, seed=8, learning_rate=1e9, optimizer="sgd_momentum",
        weight_decay=0.0, batch_size=2,
    )
    with pytest.raises(NumericError):
        tr.pretrain(clouds(4, seed=10), four_blocks(), tconfig)


def test_parent_error_kills_a_busy_helper(monkeypatch):
    """An exception in the parent's share ends a helper that is still
    computing or writing its answer; nobody reads that answer."""
    split(monkeypatch, True)
    parent, cloud_grads = os.getpid(), tr._cloud_grads

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return cloud_grads(*args)

    monkeypatch.setattr(tr, "_cloud_grads", interrupted)
    with pytest.raises(KeyboardInterrupt):
        tr.pretrain(clouds(4, seed=12), four_blocks(), tr.TrainConfig(epochs=1, batch_size=4))


def test_out_of_range_labels_in_the_helpers_half_raise(monkeypatch):
    """A standalone `evaluate` hands its second half to the helper; a label
    the backbone has no class for there reaches the caller as a DataError."""
    split(monkeypatch, True)
    bconfig = four_blocks()
    store = bb.init_backbone(bconfig, 0)
    wide = replace(tr.target_spec(points_per_class=12), labels=(0, 1, 2, 5))
    data = clouds(3, seed=3) + [tr.generate_dataset(wide, 1, seed=4)[0]]
    prepared = tr.prepare(data, bconfig)
    tr.evaluate(store, None, prepared[:2], bconfig)  # the parent's half alone is fine
    with pytest.raises(DataError, match=r"label out of range \[0, 3\): saw 0\.\.5"):
        tr.evaluate(store, None, prepared, bconfig)


# ---------------------------------------------------------------------------
# the standing helper


def varied(method, seed):
    """A store and attachment (None for the plain backbone) whose every
    trainable entry holds random values, so the attachment acts on each pass."""
    bconfig = four_blocks()
    store = bb.init_backbone(bconfig, seed)
    if method is None:
        return store, None
    config = pf.PeftConfig(method=method, rank=2, tokens=2)
    attachment = pf.attach(config, store, bconfig, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in store.trainable_items():
        t.data[...] = rng.normal(0.0, 0.1, t.shape)
    return store, attachment


def serial_metrics(store, attachment, prepared, bconfig):
    return tr._confusion(store, attachment, prepared, bconfig, [None] * len(prepared)).metrics()


@pytest.mark.parametrize("method", [None, *pf.METHODS])
def test_standing_helper_serves_back_to_back_evaluates(method, monkeypatch):
    """Three evaluates, each with its own store, attachment and clouds, then
    the first store again after an in-place edit of one of its entries: the
    split answers equal the serial ones, from one fork."""
    bconfig = four_blocks()
    config = None if method is None else pf.PeftConfig(method=method, rank=2, tokens=2)
    cases = [(*varied(method, seed), held_out(3, config, bconfig, seed=13 + seed)) for seed in range(3)]

    def run():
        answers = []
        for store, attachment, prepared in cases:
            answers.append(tr.evaluate(store, attachment, prepared, bconfig))
        store, attachment, prepared = cases[0]
        head = store["head.bias"].data
        kept = head.copy()
        head[0] += 100.0  # every point now predicts class 0
        answers.append(tr.evaluate(store, attachment, prepared, bconfig))
        head[...] = kept
        return answers

    split(monkeypatch, False)
    serial = run()
    assert serial[3] != serial[0]  # the edit reached the predictions
    split(monkeypatch, True)
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    SpyHelper.made = 0
    assert run() == serial
    assert SpyHelper.made == 1


def test_killed_standing_helper_is_replaced(monkeypatch):
    split(monkeypatch, True)
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    SpyHelper.made = 0
    bconfig = four_blocks()
    store, _ = varied(None, 1)
    prepared = held_out(4, None, bconfig)
    serial = serial_metrics(store, None, prepared, bconfig)
    assert tr.evaluate(store, None, prepared, bconfig) == serial
    first = tr._standing.proc.pid
    os.kill(first, signal.SIGKILL)
    os.waitid(os.P_PID, first, os.WEXITED | os.WNOWAIT)  # dead, left for the library to reap
    assert tr.evaluate(store, None, prepared, bconfig) == serial
    assert SpyHelper.made == 2 and tr._standing.proc.pid != first


def test_error_in_the_helpers_half_leaves_it_serving(monkeypatch):
    """An unannotated cloud in the shipped half raises in the parent; the
    helper answered with the error, so it serves the next call."""
    split(monkeypatch, True)
    monkeypatch.setattr(tr, "_Helper", SpyHelper)
    SpyHelper.made = 0
    bconfig = four_blocks()
    store, _ = varied(None, 1)
    prepared = held_out(4, None, bconfig)
    bad = list(prepared)
    bad[3] = replace(bad[3], cloud=replace(bad[3].cloud, labels=None))
    with pytest.raises(DataError, match="evaluation requires annotated clouds"):
        tr.evaluate(store, None, bad, bconfig)
    helper = tr._standing
    assert tr.evaluate(store, None, prepared, bconfig) == serial_metrics(store, None, prepared, bconfig)
    assert tr._standing is helper and SpyHelper.made == 1


def test_training_helper_never_uses_the_standing_helper(monkeypatch):
    """A training helper forked while the standing helper runs starts with
    an empty slot, and may not fork one of its own (it is daemonic)."""
    bconfig = four_blocks()
    if not tr._split_allowed(None, bconfig):
        pytest.skip("this host allows no split (one CPU or no fork)")
    store, _ = varied(None, 1)
    prepared = held_out(2, None, bconfig)
    tr.evaluate(store, None, prepared, bconfig)
    standing, parent, cloud_grads = tr._standing, os.getpid(), tr._cloud_grads

    def probe(*args):
        if os.getpid() != parent:  # the training helper reports through its error
            seen = (os.getpid(), tr._standing is None, tr._split_allowed(None, bconfig))
            raise DataError(repr(seen))
        return cloud_grads(*args)

    monkeypatch.setattr(tr, "_cloud_grads", probe)
    with pytest.raises(DataError) as info:
        tr.pretrain(clouds(4, seed=3), bconfig, tr.TrainConfig(epochs=1, batch_size=4))
    pid, empty, allowed = ast.literal_eval(str(info.value))
    assert pid not in (parent, standing.proc.pid)
    assert empty and not allowed
    assert tr._standing is standing
    assert tr.evaluate(store, None, prepared, bconfig) == serial_metrics(store, None, prepared, bconfig)


EXIT = """
from pointpeft import backbone as bb
from pointpeft import training as tr

tr._split_allowed = lambda attachment, bconfig: True
bconfig = bb.BackboneConfig(
    d=16, blocks=4, patch_size=8, heads=2, ffn_mult=2, num_classes=3,
    in_channels=6, voxel_size=0.5, stages=((0, 2), (2, 4)),
)
store = bb.init_backbone(bconfig, 0)
prepared = tr.prepare(tr.generate_dataset(tr.target_spec(points_per_class=12), 3, 13), bconfig)
for _ in range(2):
    tr.evaluate(store, None, prepared, bconfig)
print(tr._standing.proc.pid)
"""


def test_process_exit_ends_the_standing_helper():
    """A process that evaluated exits on its own, and its helper is gone:
    reaped, not left running or as a zombie."""
    src = os.path.dirname(os.path.dirname(pointpeft.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", EXIT], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    pid = int(out.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
