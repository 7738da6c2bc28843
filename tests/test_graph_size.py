"""Graph-size guard: one cloud's loss at the acceptance transfer config.

The fused ops keep a pass to a few nodes per layer: attention (projections
included) and the FFN are one node each.  Splitting one of them back into a
chain of small ops makes these counts grow past the bounds, which are the
counts reached.
"""

import numpy as np

from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr

from test_autograd import tsum

ACCEPTANCE = dict(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)


def reachable(loss) -> int:
    """Tensors reachable from `loss` through parent links, leaves included."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def loss_of_one_cloud(method):
    bconfig = bb.BackboneConfig(**ACCEPTANCE)
    store = bb.init_backbone(bconfig, 0)
    attachment = None
    if method is not None:
        attachment = pf.attach(
            pf.PeftConfig(method=method, rank=8, tokens=4, sharing="global"), store, bconfig
        )
    cloud = tr.generate_dataset(tr.target_spec(36), 1, seed=202)[0]
    (pc,) = tr.prepare([cloud], bconfig, need_neighbors=method is not None)
    assert cloud.n == 144
    out = bb.forward(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig)
    return ag.cross_entropy(out.logits, cloud.labels)


def test_gem_graph_stays_small():
    loss = loss_of_one_cloud("gem")
    assert loss.requires_grad
    assert reachable(loss) <= 178


def test_plain_backbone_graph_stays_small():
    loss = loss_of_one_cloud(None)
    assert reachable(loss) <= 106


def test_counts_every_node_once():
    x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
    y = ag.mul(x, x)
    assert reachable(tsum(ag.add(y, y))) == 4
