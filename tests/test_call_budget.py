"""Call budget: one cloud's pass at the acceptance transfer config.

Most of a pass at this size is a fixed cost per call, not arithmetic, so the
number of calls a pass makes is the budget to keep.  `sys.setprofile` counts
Python calls and calls of built-in functions; ufuncs and operators go
unseen, so the counts are lower bounds.  A training pass is the training
loop's per-cloud work (`training._cloud_grads`: forward, loss, backward and
the flat gradient); a graph-free pass is evaluation's (`training._confusion`).
Both start where the training loop does, after the frozen blocks.  The
bounds are the counts reached, under the numpy the suite runs with.
"""

import gc
import sys

import numpy as np
import pytest

from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr

from test_graph_size import ACCEPTANCE

# method: (training pass, graph-free pass), each as (Python calls, built-in calls)
BUDGET = {
    "gem": ((1085, 995), (770, 438)),
    "gem_sa_only": ((615, 521), (453, 246)),
    "lora": ((617, 476), (461, 235)),
    "prompt": ((677, 532), (521, 271)),
    None: ((683, 554), (430, 234)),  # the plain backbone, as pretraining runs it
}


def calls(fn) -> tuple[int, int]:
    """Python and built-in calls of the second of two runs of `fn`; the
    first fills whatever caches a first run fills."""
    fn()
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    gc.disable()  # a collection could run finalizers inside the count
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("method", list(BUDGET), ids=lambda m: m or "backbone")
def test_pass_stays_within_its_call_budget(method):
    bconfig = bb.BackboneConfig(**ACCEPTANCE)
    store = bb.init_backbone(bconfig, 0)
    attachment = None
    if method is not None:
        attachment = pf.attach(
            pf.PeftConfig(method=method, rank=8, tokens=4, sharing="global"), store, bconfig
        )
    cloud = tr.generate_dataset(tr.target_spec(36), 1, seed=202)[0]
    need_nbr = attachment is not None and attachment.config.has_spatial
    (pc,) = tr.prepare([cloud], bconfig, need_neighbors=need_nbr)
    assert cloud.n == 144
    start = bb.frozen_resume(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig)
    flat = np.empty(store.trainable_count)

    train = calls(lambda: tr._cloud_grads(store, attachment, pc, start, bconfig, 1.0, 0, None, flat))
    free = calls(lambda: tr._confusion(store, attachment, [pc], bconfig, [start]))

    (train_py, train_builtin), (free_py, free_builtin) = BUDGET[method]
    assert train[0] <= train_py and train[1] <= train_builtin, train
    assert free[0] <= free_py and free[1] <= free_builtin, free
