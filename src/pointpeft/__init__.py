"""Desk-scale laboratory for parameter-efficient fine-tuning of
point-cloud transformers: a float64 autograd core, synthetic labeled
scenes, a miniature local-attention backbone, and the full family of
PEFT attachments (linear probe, BitFit, adapter, LoRA, prompt tuning,
and the geometry mixer with its spatial and context adapters).
"""

import os as _os
import platform as _platform
import sys as _sys

# One BLAS thread per process, set before numpy loads.  Training splits its
# batches between two processes, and on a 2-core machine two processes with
# two OpenBLAS threads each pretrained about four times slower than with one.
# The training loop splits only if the setting held when numpy loaded; if
# numpy was loaded before this package, the variables as they stand now are
# all it can see.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, "1")
_one_blas_thread = all(_os.environ.get(v) == "1" for v in _BLAS_THREAD_VARS)

# Keep a training pass's memory for the next pass.  glibc returns the top of
# the heap to the OS once a pass frees its graph, and the next pass faults
# the same pages back in; a raised trim threshold keeps them mapped.  Raising
# it also fixes the mmap threshold at 128 KiB, so a pass's larger arrays would
# be mapped and unmapped each time; a raised mmap threshold takes them from
# the heap too.  The settings hold for the whole importing process and the
# helpers it forks; under other C libraries nothing is changed.
if _platform.libc_ver()[0] == "glibc":
    import ctypes as _ctypes

    _mallopt = _ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (_ctypes.c_int, _ctypes.c_int), _ctypes.c_int
    _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest on 64-bit hosts

from .autograd import (  # noqa: E402  (numpy must load after the settings above)
    ParamStore,
    Tensor,
    check_gradients,
    config_hash,
    cross_entropy,
    named_rng,
)
from .backbone import BackboneConfig, forward, init_backbone, load_backbone, save_backbone
from .geometry import (
    PointCloud,
    SceneSpec,
    build_neighbor_index,
    generate_scene,
    load_cloud,
    morton_codes,
    save_cloud,
    serialize,
)
from .instrumentation import OpCounter, count_pass, dump_attention, js_divergence
from .peft import (
    METHODS,
    PeftConfig,
    attach,
    budget_fit,
    load_peft,
    save_peft,
    trainable_fraction,
)
from .training import (
    ConfusionMatrix,
    TrainConfig,
    evaluate,
    finetune,
    generate_dataset,
    pretrain,
    prepare,
    source_spec,
    target_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "ConfusionMatrix",
    "METHODS",
    "OpCounter",
    "ParamStore",
    "PeftConfig",
    "PointCloud",
    "SceneSpec",
    "Tensor",
    "TrainConfig",
    "attach",
    "budget_fit",
    "build_neighbor_index",
    "check_gradients",
    "config_hash",
    "count_pass",
    "cross_entropy",
    "dump_attention",
    "evaluate",
    "finetune",
    "forward",
    "generate_dataset",
    "generate_scene",
    "init_backbone",
    "js_divergence",
    "load_backbone",
    "load_cloud",
    "load_peft",
    "morton_codes",
    "named_rng",
    "prepare",
    "pretrain",
    "save_backbone",
    "save_cloud",
    "save_peft",
    "serialize",
    "source_spec",
    "target_spec",
    "trainable_fraction",
]
