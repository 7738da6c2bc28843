"""Reference arithmetic the benchmark checks the library against.

Each function restates a quantity from its definition with plain numpy and
no library code, so a fault in the library's own version shows as a
mismatch instead of being copied into the check.
"""

from __future__ import annotations

import numpy as np


def confusion(pred, labels, num_classes: int) -> np.ndarray:
    """Counts with ground truth on rows and predictions on columns."""
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (np.asarray(labels), np.asarray(pred)), 1)
    return mat


def miou(mat: np.ndarray) -> float:
    """Mean intersection over union over classes seen in truth or prediction."""
    ious = []
    for c in range(mat.shape[0]):
        tp = int(mat[c, c])
        truth = int(mat[c, :].sum())
        predicted = int(mat[:, c].sum())
        if truth + predicted == 0:
            continue
        ious.append(tp / (truth + predicted - tp))
    return float(np.mean(ious))


def majority_miou(label_counts) -> float:
    """mIoU of predicting the most common label at every point.

    That label's IoU is its share of the points; every other class present
    in the truth scores zero.
    """
    counts = np.asarray(label_counts, dtype=np.int64)
    present = int((counts > 0).sum())
    return float(counts.max() / counts.sum() / present)


def gem_trainable_count(d: int, r: int, blocks: int, m: int, classes: int) -> int:
    """2rd + 27r² + B(3dr + 3r² + rd) + mr + dC + C.

    Spatial adapter (down, up, 27 stencil kernels), one context adapter per
    block (three down-projections, three r x r maps, one up-projection), the
    shared latent tokens, and the segmentation head.
    """
    return (
        2 * r * d
        + 27 * r * r
        + blocks * (3 * d * r + 3 * r * r + r * d)
        + m * r
        + d * classes
        + classes
    )
