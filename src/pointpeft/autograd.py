"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a row-major numpy array and remembers the operation
that produced it; each op node is stamped in creation order. ``backward``
runs the reachable op nodes in reverse creation order, which is a reverse
topological order, and accumulates gradients into every reachable leaf
whose ``requires_grad`` flag is set. Leaf gradients accumulate across
calls until explicitly zeroed; intermediate gradients are freed as soon
as they have been consumed. Inside ``no_grad`` no graph is built at all,
while leaf flags and accumulated gradients stay as they were.

Everything is 64-bit: the finite-difference tolerances used throughout
the test suite are not reachable in single precision. There is no
broadcasting: `add` and `mul` take operands of one shape, and `matmul`
multiplies an (n, i) matrix by an (i, o) one.  Biases are added inside the
fused layers.

The model's rows are short (16 to 128 wide), where numpy's per-axis
reductions are slow: a row sum over (36, 16, 16) logits takes three times
as long as the exponential.  Row and column sums on the hot path are
therefore BLAS mat-vec products with a vector of ones (`_row_sums`,
`_col_sums`), one read-only vector per width shared by all of them (`_ONES`).

A first gradient is stored as given, not copied: a leaf's ``grad`` may be
the very array a backward passed on, shared with other nodes' gradients or
a view of a larger one.  So no backward writes into the gradient it is
given or into an array it has passed to `_accum`, and no code writes into
a ``grad`` in place; accumulation always makes a new array.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError

Array = np.ndarray


class Tensor:
    """One node of a reverse-mode differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None
        self._seq = 0  # creation stamp of a graph node; backward runs in reverse stamp order

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


_grad_enabled = True  # read by _node; only no_grad changes it
_stamps = itertools.count(1)  # creation order of graph nodes, read by backward
_STAMP = operator.attrgetter("_seq")


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops inside the block record no graph: every result is a constant.

    Unlike freezing parameters, this touches no leaf: `requires_grad` flags
    and gradients accumulated before the block are the same after it.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: Array, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward_fn
                out._seq = next(_stamps)
                break
    return out


class _Ones(dict):
    """Read-only vectors of ones by length, each made on first use and then
    shared by every row and column sum of that width."""

    def __missing__(self, width: int) -> Array:
        ones = np.ones(width)
        ones.flags.writeable = False
        self[width] = ones
        return ones


_ONES = _Ones()


def _row_sums(a: Array) -> Array:
    """Sums over the last axis, keeping it as size 1, by one mat-vec product."""
    width = a.shape[-1]
    return (a.reshape(-1, width) @ _ONES[width]).reshape(a.shape[:-1] + (1,))


def _take_rows(a: Array, index: Array) -> Array:
    """Rows of `a` by index, -1 giving a zero row (the appended last row).

    `np.take` gathers narrow rows several times faster than fancy indexing,
    and the zero row replaces a masked assignment.
    """
    return np.take(np.concatenate([a, np.zeros((1,) + a.shape[1:])]), index, axis=0)


def _col_sums(g: Array) -> Array:
    """Sums of an (n, o) array over its rows, by one mat-vec product."""
    return _ONES[g.shape[0]] @ g


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op} needs operands of one shape, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _same_shape("add", a, b)
    data = a.data + b.data

    def bwd(g: Array) -> None:
        _accum(a, g)
        _accum(b, g)

    return _node(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    """Elementwise product; a Python scalar is a constant of shape (1,)."""
    a, b = _wrap(a), _wrap(b)
    _same_shape("mul", a, b)
    data = a.data * b.data

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _node(data, (a, b), bwd)


def relu(a) -> Tensor:
    """Elementwise max(0, x). The gate at exactly 0 is 0 (subgradient choice)."""
    a = _wrap(a)
    gate = a.data > 0.0
    data = np.fmax(a.data, 0.0)  # like where(gate, a, 0), NaN included, without branches

    def bwd(g: Array) -> None:
        _accum(a, g * gate)

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and reductions


def matmul(a, b) -> Tensor:
    """The product of an (n, i) and an (i, o) matrix."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul needs (n, i) x (i, o), got {a.shape} x {b.shape}")
    data = a.data @ b.data

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return _node(data, (a, b), bwd)


def flat_rows(index: Array, width: int) -> Array:
    """The flat index sending element (i, j) of (n, width) rows to index[i] * width + j."""
    return (index[:, None] * width + np.arange(width)).ravel()


def scatter_rows(rows: Array, flat: Array, count: int) -> Array:
    """(count, w) sums of the (n, w) `rows` at their `flat_rows` index: one
    `np.bincount`, adding in order of i from +0.0, so `np.add.at`'s bytes."""
    return np.bincount(flat, weights=rows.ravel(), minlength=count * rows.shape[1]).reshape(count, -1)


def gather_rows(a, index, flat: Callable[[int], Array]) -> Tensor:
    """Select rows of a 2-d tensor (`np.take`); repeated rows add their grads by
    `scatter_rows` at `flat(width)`, `flat_rows(index, width)` (say from a cache)."""
    a = _wrap(a)
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or a.data.ndim != 2:
        raise ShapeError(f"gather_rows takes 2-d rows and a 1-d index, got {a.shape} and {idx.shape}")
    data = np.take(a.data, idx, axis=0)

    def bwd(g: Array) -> None:
        _accum(a, scatter_rows(g, flat(g.shape[1]), a.data.shape[0]))

    return _node(data, (a,), bwd)


def check_labels(y: Array, num_classes: int) -> None:
    """Raise `DataError` unless every label lies in [0, num_classes)."""
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise DataError(
            f"label out of range [0, {num_classes}): saw {int(y.min())}..{int(y.max())}"
        )


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels, stabilized."""
    logits = _wrap(logits)
    y = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects n x C logits, got {logits.shape}")
    n, c = logits.data.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match logits rows {n}")
    check_labels(y, c)
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    s = np.exp(z - zmax)
    sums = s.sum(axis=-1, keepdims=True)
    lse = np.log(sums[:, 0]) + zmax[:, 0]
    data = np.asarray((lse - z[np.arange(n), y]).mean())
    s /= sums  # the softmax, for the backward

    def bwd(g: Array) -> None:
        gl = s.copy()
        gl[np.arange(n), y] -= 1.0
        _accum(logits, gl * (np.asarray(g).reshape(()) / n))

    return _node(data, (logits,), bwd)


# ---------------------------------------------------------------------------
# fused layers: one node each, closed-form backward


def affine(x, w, b) -> Tensor:
    """x @ w + b for rows x (n, i), weight (i, o) and bias row (o,)."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine needs (n, i) x (i, o), got {x.shape} x {w.shape}")
    data = x.data @ w.data
    data += b.data

    def bwd(g: Array) -> None:
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, _col_sums(g))

    return _node(data, (x, w, b), bwd)


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 for rows x, as one node."""
    x, w1, b1, w2, b2 = (_wrap(t) for t in (x, w1, b1, w2, b2))
    hidden = x.data @ w1.data
    hidden += b1.data
    np.fmax(hidden, 0.0, out=hidden)  # relu's forward, in place
    data = hidden @ w2.data
    data += b2.data

    def bwd(g: Array) -> None:
        if w2.requires_grad:
            _accum(w2, hidden.T @ g)
        if b2.requires_grad:
            _accum(b2, _col_sums(g))
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        gpre = g @ w2.data.T
        gpre *= hidden > 0.0  # relu's gate: positive before the relu iff positive after
        if x.requires_grad:
            _accum(x, gpre @ w1.data.T)
        if w1.requires_grad:
            _accum(w1, x.data.T @ gpre)
        if b1.requires_grad:
            _accum(b1, _col_sums(gpre))

    return _node(data, (x, w1, b1, w2, b2), bwd)


def layer_norm(x, scale, shift, eps: float) -> Tensor:
    """Normalize each row of an (n, d) array to zero mean and unit variance,
    then scale and shift.  Row means are mat-vec row sums divided by d."""
    x, scale, shift = _wrap(x), _wrap(scale), _wrap(shift)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects (n, d) rows, got {x.shape}")
    d = x.data.shape[1]
    ones = _ONES[d]
    mean = x.data @ ones
    mean /= d
    xhat = x.data - mean[:, None]
    var = (xhat * xhat) @ ones
    var /= d
    var += eps
    var **= -0.5
    inv = var[:, None]
    xhat *= inv
    data = xhat * scale.data
    data += shift.data

    def bwd(g: Array) -> None:
        if x.requires_grad:
            gx = g * scale.data
            mean_gx = gx @ ones
            mean_gx /= d
            mean_gxx = (gx * xhat) @ ones
            mean_gxx /= d
            gx -= mean_gx[:, None]
            gx -= xhat * mean_gxx[:, None]
            gx *= inv
            _accum(x, gx)
        if scale.requires_grad:
            _accum(scale, _col_sums(g * xhat))
        if shift.requires_grad:
            _accum(shift, _col_sums(g))

    return _node(data, (x, scale, shift), bwd)


SAFE_LOGIT = 600.0  # below this, exp cannot overflow, even summed over a row
TINY_ROW_SUM = 1e-280  # below this a row's exponentials may have lost precision


def softmax(z: Array) -> Array:
    """Softmax over the last axis.

    While every logit is below SAFE_LOGIT, the exponentials are taken
    without a shift: no per-row max (a slow reduction on short rows), and
    each row's result depends on that row alone, bit for bit.  Only when
    the array's max reaches SAFE_LOGIT, or some row sums to less than
    TINY_ROW_SUM (its logits all lie below about -640), is each row shifted
    by its own max.  NaN logits raise `NumericError`.
    """
    top = z.max()
    if top < SAFE_LOGIT:
        e = np.exp(z)
        sums = _row_sums(e)
        if sums.min() >= TINY_ROW_SUM:
            e /= sums
            return e
    elif np.isnan(top):
        raise NumericError("softmax input contains NaN")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= _row_sums(e)
    return e


def softmax_grad(s: Array, g: Array) -> Array:
    """Gradient at the logits, given softmax output `s` and its gradient `g`:
    s * (g - row sums of g * s)."""
    out = g * s
    np.subtract(g, _row_sums(out), out=out)
    out *= s
    return out


def attend(q, k, v, scale: float) -> tuple[Tensor, Array]:
    """softmax(q k^T * scale) v as one node; also returns the softmax weights."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    weights = softmax((q.data @ k.data.T) * scale)
    data = weights @ v.data

    def bwd(g: Array) -> None:
        if v.requires_grad:
            _accum(v, weights.T @ g)
        if q.requires_grad or k.requires_grad:
            gl = softmax_grad(weights, g @ v.data.T)
            gl *= scale
            if q.requires_grad:
                _accum(q, gl @ k.data)
            if k.requires_grad:
                _accum(k, gl.T @ q.data)

    return _node(data, (q, k, v), bwd), weights


MASK_LOGIT = -1e30  # its exponential is exactly zero, shifted or not


def _by_head(a: Array, patches: int, heads: int, dh: int) -> Array:
    """Slot-ordered rows (patches*p, k*heads*dh), k blocks of heads side by
    side, as a (k, patches, heads, p, dh) view: no copy."""
    return a.reshape(patches, -1, a.shape[1] // (heads * dh), heads, dh).transpose(2, 0, 3, 1, 4)


def patch_attention(x, weights, part, heads: int, lora=None, prompts=None) -> tuple[Tensor, Array]:
    """A block's multi-head attention inside each patch, as one node.

    `x` is (n, d) in point order; `weights` is the eight tensors
    (wq, bq, wk, bk, wv, bv, wo, bo) of the q, k, v and output projections.
    `part` is the cloud's `geometry.PatchPartition`, whose per-cloud
    constants (slot order, padding, each point's slot, the key mask) the
    node reads instead of deriving them.  Optional `lora` = (q_down, q_up,
    k_down, k_up) adds x q_down q_up to q and x k_down k_up to k; optional
    `prompts` = (pk, pv), each (m, d), are prepended to every patch's keys
    and values.

    The rows are gathered into patch-slot order once (a padded partition
    takes zero rows for its padded slots), q, k and v come from one product
    with the three weights side by side, padded keys are masked out, and the
    output projection's rows go back to point order with one gather by each
    point's slot (padded slots dropped).  Per-head products are written
    straight into their slot-ordered rows (`_by_head` views), and the
    backward splits the gradients back onto the stored tensors.  Also
    returns the softmax weights, (patches*heads, p, m+p) with prompt columns
    first.
    """
    x = _wrap(x)
    wq, bq, wk, bk, wv, bv, wo, bo = map(_wrap, weights)
    lora = tuple(map(_wrap, lora or ()))
    prompts = tuple(map(_wrap, prompts or ()))
    d = x.data.shape[1]
    patches, p, flat, padded = part.num_patches, part.patch_size, part.flat, part.padded
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    xs = _take_rows(x.data, flat) if padded else np.take(x.data, flat, axis=0)
    w = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    proj = xs @ w
    proj += np.concatenate([bq.data, bk.data, bv.data])
    if lora:
        q_down, q_up, k_down, k_up = lora
        hq, hk = xs @ q_down.data, xs @ k_down.data
        proj[:, :d] += hq @ q_up.data
        proj[:, d : 2 * d] += hk @ k_up.data
    if padded:
        proj[part.pad_mask.ravel()] = 0.0
    qs, ks, vs = np.ascontiguousarray(_by_head(proj, patches, heads, dh))  # each (patches, heads, p, dh)
    m = 0
    if prompts:
        m = prompts[0].data.shape[0]

        def per_patch(t: Tensor) -> Array:
            return np.broadcast_to(t.data.reshape(m, heads, dh).transpose(1, 0, 2), (patches, heads, m, dh))

        ks = np.concatenate([per_patch(prompts[0]), ks], axis=2)
        vs = np.concatenate([per_patch(prompts[1]), vs], axis=2)

    def transposed(a: Array) -> Array:
        """a^T per patch and head, the right operand of a product.  Copied
        to be contiguous, it multiplies faster than as a strided view; but
        with prompt columns (m + p keys) the copy moves the last bits at some
        widths (d = 64), so a pass with prompts keeps the view and its bytes."""
        t = a.swapaxes(2, 3)
        return t if m else np.ascontiguousarray(t)

    logits = qs @ transposed(ks)
    logits *= scale
    if padded:
        np.copyto(logits[..., m:], MASK_LOGIT, where=part.key_pad)
    attn = softmax(logits)
    mixed = np.empty((flat.size, d))
    np.matmul(attn, vs, out=_by_head(mixed, patches, heads, dh)[0])
    out = mixed @ wo.data
    out += bo.data
    data = np.take(out, part.slot_of_point, axis=0)
    inputs = (x, wq, bq, wk, bk, wv, bv, *lora, *prompts)

    def bwd(g: Array) -> None:
        gs = _take_rows(g, flat) if padded else np.take(g, flat, axis=0)
        if wo.requires_grad:
            _accum(wo, mixed.T @ gs)
        if bo.requires_grad:
            _accum(bo, _col_sums(gs))
        if not any(t.requires_grad for t in inputs):
            return
        gmixed = _by_head(gs @ wo.data.T, patches, heads, dh)[0]
        gl = softmax_grad(attn, gmixed @ transposed(vs))
        gl *= scale
        gproj = np.empty((flat.size, 3 * d))
        gq, gk, gv = _by_head(gproj, patches, heads, dh)
        np.matmul(gl, ks, out=gq)
        for i, (left, right, slots) in enumerate(((gl, qs, gk), (attn, gmixed, gv))):
            if not m:
                np.matmul(left.swapaxes(2, 3), right, out=slots)
                continue
            grad = left.swapaxes(2, 3) @ right  # prompt rows first
            slots[...] = grad[:, :, m:]
            if prompts[i].requires_grad:
                summed = grad[:, :, :m].sum(axis=0)
                _accum(prompts[i], summed.transpose(1, 0, 2).reshape(m, d))
        gw = xs.T @ gproj if wq.requires_grad or wk.requires_grad or wv.requires_grad else None
        gb = _col_sums(gproj) if bq.requires_grad or bk.requires_grad or bv.requires_grad else None
        for i, (wt, bt) in enumerate(((wq, bq), (wk, bk), (wv, bv))):
            cols = slice(i * d, (i + 1) * d)
            if wt.requires_grad:
                _accum(wt, gw[:, cols])
            if bt.requires_grad:
                _accum(bt, gb[cols])
        gxs = gproj @ w.T if x.requires_grad else None
        if lora:
            for (down, up), h, gout in (
                ((q_down, q_up), hq, gproj[:, :d]),
                ((k_down, k_up), hk, gproj[:, d : 2 * d]),
            ):
                if up.requires_grad:
                    _accum(up, h.T @ gout)
                gh = gout @ up.data.T
                if down.requires_grad:
                    _accum(down, xs.T @ gh)
                if gxs is not None:
                    gxs += gh @ down.data.T
        if gxs is not None:
            _accum(x, np.take(gxs, part.slot_of_point, axis=0))

    return _node(data, (*inputs, wo, bo), bwd), attn.reshape(patches * heads, p, m + p)


def stencil(vox, neighbors, kernels) -> Tensor:
    """Sum over slots s of vox[neighbors[:, s]] @ kernels[s], as one node.

    `vox` is (V, r); `neighbors` (V, S) holds voxel ids, -1 for an empty
    slot, which contributes nothing; `kernels` is (S, r, o), one kernel per
    slot.  The S gathered rows sit side by side, (V, S*r), times the
    kernels read as one (S*r, o) matrix.

    The backward requires a symmetric relation: slot s of voxel v holds u
    exactly when slot S-1-s of u holds v.  `geometry.build_neighbor_index`
    gives that, since `stencil_offsets` is in base-K order and slot S-1-s is
    the negated offset.  Voxel u's gradient, the sum of g[v] @ kernels[s].T
    over every (v, s) whose slot holds u, is then the sum over u's own
    slots s of g[neighbors[u, s]] @ kernels[S-1-s].T: the forward's gather,
    of g, times the transposed kernels stacked in mirrored slot order.
    """
    vox, kernels = _wrap(vox), _wrap(kernels)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    num_voxels, r = vox.data.shape
    if kernels.data.ndim != 3 or kernels.data.shape[:2] != (neighbors.shape[1], r):
        raise ShapeError(f"kernels {kernels.shape} for {neighbors.shape} neighbors of width {r}")
    flat = neighbors.ravel()
    gathered = _take_rows(vox.data, flat).reshape(num_voxels, -1)
    data = gathered @ kernels.data.reshape(gathered.shape[1], -1)

    def bwd(g: Array) -> None:
        if vox.requires_grad:
            # kept Fortran-ordered: a C-ordered copy of the same values takes
            # another BLAS path and can move the gradient's last bits
            mirrored = kernels.data[::-1].transpose(1, 0, 2).reshape(r, -1).T
            _accum(vox, _take_rows(g, flat).reshape(num_voxels, -1) @ mirrored)
        if kernels.requires_grad:
            _accum(kernels, (gathered.T @ g).reshape(kernels.data.shape))

    return _node(data, (vox, kernels), bwd)


# ---------------------------------------------------------------------------
# graph traversal


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable trainable leaf.

    Repeated calls without zeroing grads accumulate. Intermediate node
    gradients are dropped once consumed.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    nodes = [loss] if loss._backward is not None else []
    seen = {id(loss)}
    for node in nodes:  # every op node reachable from the loss; leaves have no _backward
        for parent in node._parents:
            if parent._backward is not None and id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
    # A node is stamped after its inputs, so descending stamps put each node
    # before everything it was computed from.
    nodes.sort(key=_STAMP, reverse=True)

    loss.grad = np.ones_like(loss.data)
    for node in nodes:
        node._backward(node.grad)
        node.grad = None  # intermediates are never leaves


# ---------------------------------------------------------------------------
# parameter store


class ParamStore:
    """Ordered, uniquely named parameter tensors with freeze flags.

    Frozen parameters never accumulate gradient and are never updated by
    an optimizer step; the ``requires_grad`` flag of the stored tensor is
    kept in sync with the freeze flag.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._frozen: dict[str, bool] = {}
        self._split: tuple[list, list] | None = None  # see `_items`

    def add(self, name: str, value, frozen: bool = False) -> Tensor:
        if name in self._entries:
            raise ContractError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = not frozen
        self._entries[name] = t
        self._frozen[name] = frozen
        self._split = None
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def frozen(self, name: str) -> bool:
        return self._frozen[name]

    def set_frozen(self, name: str, flag: bool) -> None:
        self._frozen[name] = flag
        self._entries[name].requires_grad = not flag
        self._split = None
        if flag:
            self._entries[name].grad = None

    def _items(self) -> tuple[list, list]:
        """The trainable and the frozen (name, tensor) pairs in store order,
        listed once and kept until the next `add` or `set_frozen`."""
        if self._split is None:
            self._split = ([], [])
            for name, t in self._entries.items():
                self._split[self._frozen[name]].append((name, t))
        return self._split

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return list(self._items()[0])

    def frozen_items(self) -> list[tuple[str, Tensor]]:
        return list(self._items()[1])

    @property
    def total_count(self) -> int:
        return sum(t.numel for t in self._entries.values())

    @property
    def trainable_count(self) -> int:
        return sum(t.numel for n, t in self._entries.items() if not self._frozen[n])

    def zero_grads(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._entries.items():
            out.add(name, t.data.copy(), frozen=self._frozen[name])
        return out

    def byte_snapshot(self, prefix: str = "") -> dict[str, bytes]:
        return {
            n: t.data.tobytes()
            for n, t in self._entries.items()
            if n.startswith(prefix)
        }


# ---------------------------------------------------------------------------
# finite-difference oracle


def check_gradients(f: Callable[[], Tensor], store: ParamStore, h: float = 1.0e-5) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    Returns the max over all trainable scalars of
    ``|analytic - numeric| / max(1, |numeric|)``. Frozen parameters are
    excluded. ``f`` must be deterministic.
    """
    store.zero_grads()
    backward(f())
    analytic = {
        name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
        for name, t in store.trainable_items()
    }

    worst = 0.0
    for name, t in store.trainable_items():
        flat = t.data.ravel()
        ana = analytic[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = f().item()
            flat[i] = orig - h
            lm = f().item()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            rel = abs(ana[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
    store.zero_grads()
    return worst


def named_rng(seed: int, *names: str) -> np.random.Generator:
    """Deterministic substream of a base seed, keyed by names like "init"."""
    keys = [
        int.from_bytes(hashlib.sha256(n.encode("utf-8")).digest()[:8], "big")
        for n in names
    ]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *keys]))


# ---------------------------------------------------------------------------
# checkpoint container

# One record per parameter: `name<TAB>shape(csv)<TAB>frozen(0|1)` followed by
# one line holding `encode_hex` of its values (empty for an empty record). A
# key=value config block sits at the top and is hashed for provenance.

HEX_DIGITS_PER_VALUE = 16


def encode_hex(values: Array) -> str:
    """The hex of `values`' bytes in C order: 16 lowercase hex digits per
    value, IEEE-754 binary64, little-endian, no separators.

    Hex is exact and needs no decimal conversion, which took most of the
    time to load or save a checkpoint; cloud files are checkpoints too.
    """
    return np.asarray(values, dtype="<f8").tobytes().hex()


def decode_hex(text: str, count: int) -> Array | None:
    """The `count` doubles `encode_hex` wrote as `text`, or None if `text`
    holds anything else; the array views a writable buffer."""
    if len(text) != HEX_DIGITS_PER_VALUE * count:
        return None
    try:
        raw = bytearray.fromhex(text)
    except ValueError:  # a digit that is not hex
        return None
    if len(raw) * 2 != len(text):  # fromhex skips ASCII whitespace
        return None
    return np.frombuffer(raw, "<f8")


def canonical_config_text(config: dict) -> str:
    return "\n".join(f"{k}={config[k]}" for k in sorted(config))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config_text(config).encode("utf-8")).hexdigest()


def cmd_comment(command: str) -> str:
    """The `# cmd:` comment line an artifact opens with; line breaks in the
    command fold into spaces, so the comment stays one line."""
    return f"# cmd: {' '.join(command.splitlines())}"


def save_checkpoint(path, store: ParamStore, config: dict | None = None, command: str | None = None) -> None:
    """Write `store` and `config` as text, each record's values as
    `encode_hex` writes them; names and entries the format cannot
    hold (a line break, a tab in a name, `=` in a key, a leading `#`) raise
    ContractError."""
    cfg = {str(k): str(v) for k, v in (config or {}).items()}
    for name in store.names():
        if name.startswith("#") or any(ch in name for ch in "\t\n\r"):
            raise ContractError(f"parameter name {name!r} cannot be written to a checkpoint")
    for k, v in cfg.items():
        if k.startswith("#") or "=" in k or any(ch in k + v for ch in "\n\r"):
            raise ContractError(f"config entry {k!r} cannot be written to a checkpoint")
    lines = []
    if command is not None:
        lines.append(cmd_comment(command))
    lines.append(f"# hash: {config_hash(cfg)}")
    lines.append("[config]")
    for k in sorted(cfg):
        lines.append(f"{k}={cfg[k]}")
    lines.append("[params]")
    for name, t in store.items():
        shape_csv = ",".join(str(s) for s in t.shape)
        lines.append(f"{name}\t{shape_csv}\t{int(store.frozen(name))}")
        lines.append(encode_hex(t.data))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[dict, ParamStore]:
    """Read a `save_checkpoint` file; malformed content raises DataError.

    Each config line must hold `=` and a key no earlier line holds. A
    record's value line must hold exactly 16 hex digits per value (either
    letter case) and nothing else; `decode_hex` decodes it, and the arrays
    are views of those writable buffers. A decimal value line, the
    encoding before hex, is refused with a DataError like any other line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0] != "[config]":
        raise DataError(f"{path}: missing [config] block")
    config: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "[params]":
        if lines[i]:
            key, eq, val = lines[i].partition("=")
            if not eq or key in config:
                why = "has no '='" if not eq else f"repeats the key {key!r}"
                raise DataError(f"{path}: config line {lines[i]!r} {why}")
            config[key] = val
        i += 1
    if i == len(lines):
        raise DataError(f"{path}: missing [params] block")
    i += 1
    store = ParamStore()
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        header = lines[i].split("\t")
        if len(header) != 3:
            raise DataError(f"{path}: malformed parameter record: {lines[i]!r}")
        name, shape_csv, frozen_flag = header
        try:
            shape = tuple(int(s) for s in shape_csv.split(",")) if shape_csv else ()
            frozen = bool(int(frozen_flag))
            text = lines[i + 1]
            if any(s < 0 for s in shape):
                raise DataError(f"{path}: negative shape {shape_csv} for {name}")
            count = math.prod(shape)
            values = decode_hex(text, count)
            if values is None:
                why = (
                    "; it holds decimals, the encoding before hex: re-run `pointpeft pretrain`"
                    " (and `finetune`) to rewrite the checkpoint"
                    if "." in text
                    else ""
                )
                raise DataError(
                    f"{path}: the value line of {name} must hold {count} values as "
                    f"{HEX_DIGITS_PER_VALUE} hex digits each (IEEE-754 binary64, little-endian){why}"
                )
            store.add(name, values.reshape(shape), frozen=frozen)
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed parameter record for {name}: {exc}") from exc
        except ContractError as exc:  # the name appeared before
            raise DataError(f"{path}: {exc}") from exc
        i += 2
    return config, store


def validate_store_layout(store: ParamStore, expected: dict[str, tuple[int, ...]]) -> None:
    """Check that a loaded store has exactly the expected names and shapes."""
    got = {name: t.shape for name, t in store.items()}
    if got.keys() != expected.keys():
        missing = sorted(expected.keys() - got.keys())
        extra = sorted(got.keys() - expected.keys())
        raise ContractError(f"parameter name set mismatch: missing={missing} extra={extra}")
    for name, shape in expected.items():
        if got[name] != shape:
            raise ContractError(f"parameter {name}: shape {got[name]} != expected {shape}")
