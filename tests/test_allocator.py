"""A training pass reuses the memory of the pass before it, and so does a
standalone evaluation.

`pointpeft/__init__.py` raises glibc's trim and mmap thresholds, so the
memory a pass frees stays mapped for the next one instead of going back to
the OS and faulting in again.  Each count runs in a fresh process, which
imports the package the way a user's process does, and is skipped where the
C library is not glibc.  With glibc's defaults the three passes took 583
minor faults; with the thresholds raised, 1 to 10.

A standalone `evaluate` that splits ships half its clouds to the process's
standing helper instead of forking one per call, so the parent no longer
pays a fork's copy-on-write faults on each call.  Forking a helper per call
cost the parent 1,146 to 1,404 minor faults per call on a 2-CPU host; the
bound of 100 for three calls was named before the count was first taken.
"""

import os
import platform
import subprocess
import sys

import pytest

import pointpeft

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

PASSES = """
import resource

import numpy as np

from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr

bconfig = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)
store = bb.init_backbone(bconfig, 0)
attachment = pf.attach(pf.PeftConfig(method="gem", rank=8, tokens=4, sharing="global"), store, bconfig)
cloud = tr.generate_dataset(tr.target_spec(36), 1, seed=202)[0]
(pc,) = tr.prepare([cloud], bconfig, need_neighbors=True)
start = bb.frozen_resume(pc.cloud, pc.part, pc.nbr, attachment, store, bconfig)
flat = np.empty(store.trainable_count)


def passes(count):
    for _ in range(count):
        tr._cloud_grads(store, attachment, pc, start, bconfig, 1.0, 0, None, flat)


passes(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
passes(3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


EVALUATES = """
import resource

from pointpeft import backbone as bb
from pointpeft import peft as pf
from pointpeft import training as tr

tr._split_allowed = lambda attachment, bconfig: True
bconfig = bb.BackboneConfig(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)
store = bb.init_backbone(bconfig, 0)
attachment = pf.attach(pf.PeftConfig(method="gem", rank=8, tokens=4, sharing="global"), store, bconfig)
clouds = tr.generate_dataset(tr.target_spec(36), 16, seed=202)
prepared = tr.prepare(clouds, bconfig, need_neighbors=True)


def evaluates(count):
    for _ in range(count):
        tr.evaluate(store, attachment, prepared, bconfig)


evaluates(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluates(3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def faults(script: str) -> int:
    """The count `script` prints last, run in a fresh process."""
    src = os.path.dirname(os.path.dirname(pointpeft.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return int(out.stdout.split()[-1])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are set only under glibc")
def test_training_passes_fault_in_no_new_memory():
    count = faults(PASSES)
    assert count <= 100, count


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are set only under glibc")
@pytest.mark.skipif(CPUS < 2, reason="a split needs two CPUs")
def test_standalone_evaluates_fault_in_no_new_memory():
    count = faults(EVALUATES)
    assert count <= 100, count
