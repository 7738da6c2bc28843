"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a row-major numpy array and remembers the operation
that produced it. ``backward`` walks the (acyclic) graph in reverse
topological order and accumulates gradients into every reachable leaf
whose ``requires_grad`` flag is set. Leaf gradients accumulate across
calls until explicitly zeroed; intermediate gradients are freed as soon
as they have been consumed. Inside ``no_grad`` no graph is built at all,
while leaf flags and accumulated gradients stay as they were.

Everything is 64-bit: the finite-difference tolerances used throughout
the test suite are not reachable in single precision. Broadcasting is
supported only to the extent the model needs it (bias rows, batched
matmul with a shared right operand).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError

Array = np.ndarray


class Tensor:
    """One node of a reverse-mode differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

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

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar. Scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    t.grad = np.array(g, dtype=np.float64) if t.grad is None else t.grad + g


_grad_enabled = True  # read by _node; only no_grad changes it


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
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def bwd(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data

    def bwd(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

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
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} x {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as err:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} x {b.shape}") from err

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(data, (a, b), bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g: Array) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), bwd)


def gather_rows(a, index) -> Tensor:
    """Select rows along axis 0; index -1 yields a zero row."""
    a = _wrap(a)
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows index must be 1-d, got shape {idx.shape}")
    valid = idx >= 0
    data = np.zeros((idx.size,) + a.data.shape[1:], dtype=np.float64)
    data[valid] = a.data[idx[valid]]

    def bwd(g: Array) -> None:
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx[valid], g[valid])
        _accum(a, ga)

    return _node(data, (a,), bwd)


def group_mean(a, groups, num_groups: int) -> Tensor:
    """Average rows sharing a group id; empty groups give zero rows."""
    a = _wrap(a)
    gid = np.asarray(groups, dtype=np.int64)
    counts = np.bincount(gid, minlength=num_groups).astype(np.float64)
    denom = np.maximum(counts, 1.0)
    sums = np.zeros((num_groups,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(sums, gid, a.data)
    data = sums / denom.reshape((-1,) + (1,) * (a.data.ndim - 1))

    def bwd(g: Array) -> None:
        scale = denom[gid].reshape((-1,) + (1,) * (a.data.ndim - 1))
        _accum(a, g[gid] / scale)

    return _node(data, (a,), bwd)


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels, stabilized."""
    logits = _wrap(logits)
    y = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects n x C logits, got {logits.shape}")
    n, c = logits.data.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match logits rows {n}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise DataError(f"label out of range [0, {c}): saw {int(y.min())}..{int(y.max())}")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    lse = np.log(e.sum(axis=-1)) + zmax[:, 0]
    data = np.asarray((lse - z[np.arange(n), y]).mean())
    s = e / e.sum(axis=-1, keepdims=True)

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
    data = x.data @ w.data + b.data

    def bwd(g: Array) -> None:
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _node(data, (x, w, b), bwd)


def layer_norm(x, scale, shift, eps: float) -> Tensor:
    """Normalize each row to zero mean and unit variance, then scale and shift."""
    x, scale, shift = _wrap(x), _wrap(scale), _wrap(shift)
    d = x.data.shape[-1]

    def row_mean(a: Array) -> Array:  # bitwise equal to a.mean(axis=-1), cheaper
        return a.sum(axis=-1, keepdims=True) / d

    centered = x.data - row_mean(x.data)
    inv = (row_mean(centered * centered) + eps) ** -0.5
    xhat = centered * inv
    data = xhat * scale.data + shift.data

    def bwd(g: Array) -> None:
        if x.requires_grad:
            gx = g * scale.data
            _accum(x, inv * (gx - row_mean(gx) - xhat * row_mean(gx * xhat)))
        if scale.requires_grad:
            _accum(scale, _unbroadcast(g * xhat, scale.data.shape))
        if shift.requires_grad:
            _accum(shift, _unbroadcast(g, shift.data.shape))

    return _node(data, (x, scale, shift), bwd)


def softmax(z: Array) -> Array:
    """Softmax over the last axis, stabilized by row-max subtraction."""
    if np.isnan(z).any():
        raise NumericError("softmax input contains NaN")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(s: Array, g: Array) -> Array:
    """Gradient at the logits, given softmax output `s` and its gradient `g`."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def attend(q, k, v, scale: float) -> tuple[Tensor, Array]:
    """softmax(q k^T * scale) v as one node; also returns the softmax weights."""
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    weights = softmax((q.data @ k.data.T) * scale)
    data = weights @ v.data

    def bwd(g: Array) -> None:
        if v.requires_grad:
            _accum(v, weights.T @ g)
        if q.requires_grad or k.requires_grad:
            gl = softmax_grad(weights, g @ v.data.T) * scale
            if q.requires_grad:
                _accum(q, gl @ k.data)
            if k.requires_grad:
                _accum(k, gl.T @ q.data)

    return _node(data, (q, k, v), bwd), weights


MASK_LOGIT = -1e30  # underflows to an exactly-zero weight after the max shift


def _to_slots(a: Array, index: Array, heads: int) -> Array:
    """(n, d) rows -> (patches*heads, p, d/heads) by patch slot, zero in padded slots."""
    patches, p = index.shape
    rows = a[index]
    rows[index < 0] = 0.0
    split = rows.reshape(patches, p, heads, -1).transpose(0, 2, 1, 3)
    return split.reshape(patches * heads, p, -1)


def _to_points(a: Array, index: Array, n: int) -> Array:
    """Inverse of `_to_slots`: back to (n, d) in point order, padded slots dropped."""
    patches, p = index.shape
    slots = a.reshape(patches, -1, p, a.shape[-1]).transpose(0, 2, 1, 3).reshape(patches * p, -1)
    flat = index.ravel()
    valid = flat >= 0
    out = np.empty((n, slots.shape[1]))
    out[flat[valid]] = slots[valid]
    return out


def patch_attention(q, k, v, index, heads: int, prompt_k=None, prompt_v=None) -> tuple[Tensor, Array]:
    """Multi-head softmax attention inside each patch, as one node.

    q, k, v are (n, d) in point order; `index` is (patches, p) point ids
    with -1 in padded slots.  Optional prompts (m, d) are prepended to every
    patch's keys and values.  Padded keys are masked out and padded queries
    dropped, so the (n, d) output comes back in point order.  Also returns
    the softmax weights, (patches*heads, p, m+p) with prompt columns first.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    n, d = q.data.shape
    index = np.asarray(index, dtype=np.int64)
    patches = index.shape[0]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    qs, ks, vs = (_to_slots(t.data, index, heads) for t in (q, k, v))
    prompts: tuple[Tensor, ...] = ()
    m = 0
    if prompt_k is not None:
        prompts = (_wrap(prompt_k), _wrap(prompt_v))
        m = prompts[0].data.shape[0]

        def per_patch(t: Tensor) -> Array:
            split = t.data.reshape(m, heads, dh).transpose(1, 0, 2)
            return np.broadcast_to(split, (patches, heads, m, dh)).reshape(patches * heads, m, dh)

        ks = np.concatenate([per_patch(prompts[0]), ks], axis=1)
        vs = np.concatenate([per_patch(prompts[1]), vs], axis=1)

    logits = (qs @ ks.transpose(0, 2, 1)) * scale
    key_pad = np.repeat(index < 0, heads, axis=0)[:, None, :]
    logits[:, :, m:] = np.where(key_pad, MASK_LOGIT, logits[:, :, m:])
    weights = softmax(logits)
    data = _to_points(weights @ vs, index, n)

    def bwd(g: Array) -> None:
        gs = _to_slots(g, index, heads)
        gv = weights.transpose(0, 2, 1) @ gs
        gl = softmax_grad(weights, gs @ vs.transpose(0, 2, 1)) * scale
        gq = gl @ ks
        gk = gl.transpose(0, 2, 1) @ qs
        for t, grad in ((q, gq), (k, gk[:, m:]), (v, gv[:, m:])):
            if t.requires_grad:
                _accum(t, _to_points(grad, index, n))
        for t, grad in zip(prompts, (gk[:, :m], gv[:, :m])):
            if t.requires_grad:
                summed = grad.reshape(patches, heads, m, dh).sum(axis=0)
                _accum(t, summed.transpose(1, 0, 2).reshape(m, d))

    return _node(data, (q, k, v, *prompts), bwd), weights


def stencil(vox, neighbors, kernels) -> Tensor:
    """Sum over slots s of vox[neighbors[:, s]] @ kernels[s], as one node.

    `vox` is (V, r); `neighbors` (V, S) holds voxel ids, -1 for an empty
    slot, which contributes nothing.  The S gathered rows sit side by side,
    (V, S*r), times the S kernels (r, o) stacked in slot order, (S*r, o).
    """
    vox = _wrap(vox)
    kernels = tuple(_wrap(kern) for kern in kernels)
    flat = np.asarray(neighbors, dtype=np.int64).ravel()
    num_voxels, r = vox.data.shape
    empty = flat < 0
    gathered = vox.data[flat]
    gathered[empty] = 0.0
    gathered = gathered.reshape(num_voxels, -1)
    stacked = np.concatenate([kern.data for kern in kernels])
    if stacked.shape[0] != gathered.shape[1]:
        raise ShapeError(f"{len(kernels)} kernels of {kernels[0].shape} for {gathered.shape} neighbors")
    data = gathered @ stacked

    def bwd(g: Array) -> None:
        if vox.requires_grad:
            spread = (g @ stacked.T).reshape(-1, r)
            gv = np.zeros_like(vox.data)
            np.add.at(gv, flat[~empty], spread[~empty])
            _accum(vox, gv)
        gk = gathered.T @ g
        for s, kern in enumerate(kernels):
            if kern.requires_grad:
                _accum(kern, gk[s * r : (s + 1) * r])

    return _node(data, (vox, *kernels), bwd)


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

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
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

    def add(self, name: str, value, frozen: bool = False) -> Tensor:
        if name in self._entries:
            raise ContractError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = not frozen
        self._entries[name] = t
        self._frozen[name] = frozen
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def frozen(self, name: str) -> bool:
        return self._frozen[name]

    def set_frozen(self, name: str, flag: bool) -> None:
        self._frozen[name] = flag
        self._entries[name].requires_grad = not flag
        if flag:
            self._entries[name].grad = None

    def freeze_prefix(self, prefix: str) -> None:
        for name in self._entries:
            if name.startswith(prefix):
                self.set_frozen(name, True)

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._entries.items() if not self._frozen[n]]

    def trainable_names(self) -> list[str]:
        return [n for n in self._entries if not self._frozen[n]]

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
# one line of space-separated decimals at full round-trip precision. A
# key=value config block sits at the top and is hashed for provenance.


def canonical_config_text(config: dict) -> str:
    return "\n".join(f"{k}={config[k]}" for k in sorted(config))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config_text(config).encode("utf-8")).hexdigest()


def save_checkpoint(path, store: ParamStore, config: dict | None = None, command: str | None = None) -> None:
    cfg = {str(k): str(v) for k, v in (config or {}).items()}
    lines = []
    if command is not None:
        lines.append(f"# cmd: {command}")
    lines.append(f"# hash: {config_hash(cfg)}")
    lines.append("[config]")
    for k in sorted(cfg):
        lines.append(f"{k}={cfg[k]}")
    lines.append("[params]")
    for name, t in store.items():
        shape_csv = ",".join(str(s) for s in t.shape)
        lines.append(f"{name}\t{shape_csv}\t{int(store.frozen(name))}")
        lines.append(" ".join(repr(float(v)) for v in t.data.ravel()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[dict, ParamStore]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in raw if not ln.startswith("#")]
    if not lines or lines[0] != "[config]":
        raise DataError(f"{path}: missing [config] block")
    config: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "[params]":
        if lines[i]:
            key, _, val = lines[i].partition("=")
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
        shape = tuple(int(s) for s in shape_csv.split(",")) if shape_csv else ()
        values = np.asarray(lines[i + 1].split(), dtype=np.float64)
        if values.size != int(np.prod(shape, dtype=np.int64)):
            raise DataError(f"{path}: value count mismatch for {name}")
        store.add(name, values.reshape(shape), frozen=bool(int(frozen_flag)))
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
