"""Point-cloud spatial structure.

Voxel binning with floor semantics, Morton (z-order) serialization, patch
partitioning for local attention, a 3x3x3 voxel stencil neighbor index, and a
deterministic synthetic scene generator over labeled geometric primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import ParamStore, flat_rows, load_checkpoint, save_checkpoint
from .errors import DataError, UsageError

Array = np.ndarray

SCENE_EXTENT = 4.0
WALL_HEIGHT = 2.0
SHAPE_NAMES = ("floor", "wall", "box", "sphere")

_MORTON_BITS = 21
STENCIL_K = 3  # voxels per axis of the spatial adapter's stencil


@dataclass
class PointCloud:
    """n points with coordinates, per-point features, and optional labels."""

    coords: Array
    feats: Array
    labels: Array | None = None
    num_classes: int = 0

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.feats = np.asarray(self.feats, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise DataError(f"coords must be n x 3, got {self.coords.shape}")
        if self.n < 1:
            raise DataError("point cloud must contain at least one point")
        if not np.isfinite(self.coords).all():
            raise DataError("coords must be finite")
        if self.num_classes < 0:
            raise DataError(f"num_classes must be >= 0, got {self.num_classes}")
        if self.feats.shape[0] != self.n:
            raise DataError(
                f"feats rows {self.feats.shape[0]} disagree with n={self.n}"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.n,):
                raise DataError("labels must be a length-n vector")
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise DataError(
                    f"labels outside [0, {self.num_classes}) in annotated cloud"
                )

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def c(self) -> int:
        return self.feats.shape[1]


def voxel_keys(coords: Array, voxel_size: float) -> Array:
    """Integer voxel index per point: floor(coord / voxel_size) per axis."""
    if voxel_size <= 0:
        raise UsageError(f"voxel_size must be positive, got {voxel_size}")
    return np.floor(np.asarray(coords, dtype=np.float64) / voxel_size).astype(np.int64)


# (shift, mask) per step of spreading the low 21 bits so bit j moves to bit 3j
_SPREAD = [(np.uint64(s), np.uint64(m)) for s, m in [(32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF),
           (8, 0x100F00F00F00F00F), (4, 0x10C30C30C30C30C3), (2, 0x1249249249249249)]]
_AXIS_SHIFTS = np.arange(3, dtype=np.uint64)


def morton_codes(keys: Array) -> Array:
    """63-bit Morton code per voxel key, x in the least significant bit slot.

    Keys are offset to nonnegative per axis first; each axis must then fit in
    21 bits.  All three columns are spread at once, then shifted and or-ed.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2 or keys.shape[1] != 3:
        raise UsageError(f"keys must be n x 3, got {keys.shape}")
    shifted = keys - np.minimum(keys.min(axis=0), 0)
    if shifted.max(initial=0) >= (1 << _MORTON_BITS):
        raise DataError(f"voxel index range exceeds {_MORTON_BITS} bits per axis after offsetting")
    v = shifted.astype(np.uint64)
    for shift, mask in _SPREAD:
        v |= v << shift
        v &= mask
    return np.bitwise_or.reduce(v << _AXIS_SHIFTS, axis=1)


def morton_order(keys: Array) -> Array:
    """Permutation sorting points by Morton code, ties kept in input order."""
    return np.argsort(morton_codes(keys), kind="stable")


@dataclass(frozen=True)
class PatchPartition:
    """Contiguous chunks of a serialized point order, last chunk padded.

    Besides `index` and `pad_mask`, it holds the constants patch attention
    reads on every pass, derived here once per cloud: `flat`, the slots in
    order (`index.ravel()`); `padded`, whether any slot is padding;
    `slot_of_point`, each point's slot (so `flat[slot_of_point[i]] == i`),
    which takes slot-ordered rows back to point order with one gather; and
    `key_pad`, `pad_mask` shaped (num_patches, 1, 1, patch_size) to
    broadcast over heads and query rows.
    """

    order: Array
    patch_size: int
    num_patches: int
    index: Array  # (num_patches, patch_size) point indices, -1 in padded slots
    pad_mask: Array  # (num_patches, patch_size) True where the slot is padding
    flat: Array
    padded: bool
    slot_of_point: Array
    key_pad: Array

    @property
    def n(self) -> int:
        return self.order.shape[0]


def partition(order: Array, n: int, p: int) -> PatchPartition:
    """Chunk the ordered points into ceil(n/p) patches of size p."""
    order = np.asarray(order, dtype=np.int64)
    if p < 1:
        raise UsageError(f"patch size must be >= 1, got {p}")
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise UsageError("order must be a permutation of [0, n)")
    num_patches = -(-n // p)
    flat = np.full(num_patches * p, -1, dtype=np.int64)
    flat[:n] = order
    index = flat.reshape(num_patches, p)
    pad_mask = index < 0
    slot_of_point = np.empty(n, dtype=np.int64)
    slot_of_point[order] = np.arange(n)
    return PatchPartition(
        order=order,
        patch_size=p,
        num_patches=num_patches,
        index=index,
        pad_mask=pad_mask,
        flat=flat,
        padded=n < flat.size,
        slot_of_point=slot_of_point,
        key_pad=pad_mask[:, None, None, :],
    )


def serialize(cloud: PointCloud, voxel_size: float, p: int) -> PatchPartition:
    """Morton-order the cloud at the given voxel size and partition into patches."""
    return partition(morton_order(voxel_keys(cloud.coords, voxel_size)), cloud.n, p)


def stencil_offsets() -> Array:
    """The K^3 integer offsets of a centered stencil, K = STENCIL_K, in base-K slot order."""
    return np.indices((STENCIL_K,) * 3).reshape(3, -1).T - STENCIL_K // 2


_OFFSETS = stencil_offsets()
_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class NeighborIndex:
    """Per-voxel stencil adjacency with a point-to-voxel assignment.

    Voxel ids follow the lexicographic order of the voxel keys.
    neighbor_voxels[v, s] is the voxel id found at stencil offset s from voxel
    v, or -1 when that voxel is empty.  The points of voxel v are
    point_order[voxel_starts[v]:voxel_starts[v + 1]], in input order.
    Point-level neighbor lists are derived:
    neighbors(i, o) = points of the voxel at key(i) + o.
    """

    num_points: int
    offsets: Array  # (K^3, 3)
    voxel_of_point: Array  # (n,) voxel id per point
    point_order: Array  # (n,) point indices sorted by voxel id
    voxel_starts: Array  # (num_voxels + 1,) run boundaries in point_order
    neighbor_voxels: Array  # (num_voxels, K^3)
    _flat: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_voxels(self) -> int:
        return self.neighbor_voxels.shape[0]

    def flat_index(self, width: int) -> Array:
        """`autograd.flat_rows` of `voxel_of_point`, built once per row width."""
        if width not in self._flat:
            self._flat[width] = flat_rows(self.voxel_of_point, width)
        return self._flat[width]

    @property
    def voxel_points(self) -> tuple[Array, ...]:
        """Point indices per voxel id, as views of `point_order`."""
        s = self.voxel_starts
        return tuple(self.point_order[a:b] for a, b in zip(s[:-1], s[1:]))

    def slot(self, offset) -> int:
        k = STENCIL_K
        dx, dy, dz = (int(v) + k // 2 for v in offset)
        for v in (dx, dy, dz):
            if not 0 <= v < k:
                raise UsageError(f"offset {tuple(offset)} outside the stencil")
        return (dx * k + dy) * k + dz

    def neighbors(self, i: int, offset) -> Array:
        """Point indices whose voxel key equals key(i) + offset."""
        v = self.neighbor_voxels[self.voxel_of_point[i], self.slot(offset)]
        if v < 0:
            return np.empty(0, dtype=np.int64)
        return self.point_order[self.voxel_starts[v] : self.voxel_starts[v + 1]]


def build_neighbor_index(cloud: PointCloud, voxel_size: float) -> NeighborIndex:
    """Index each point's stencil of K^3 vicinity voxels, K = STENCIL_K.

    Each voxel key, offset by its per-axis minimum, is packed into one int64
    with mixed-radix strides of (extent + 1) per axis, extent the voxels it
    spans there.  The packed keys sort like the key rows, and a stencil step
    off either end of an axis lands in its empty layer (K // 2 layers), so
    each slot is a constant step: all K^3 neighbors are one sum and one
    `searchsorted`.  The radices may multiply to at most 2^63 (2^21 - 1
    voxels on every axis); a larger cloud raises DataError.
    """
    keys = voxel_keys(cloud.coords, voxel_size)
    low, high = keys.min(axis=0), keys.max(axis=0)
    # radices as Python ints, so the check itself cannot overflow
    r0, r1, r2 = (h - lo + 1 + STENCIL_K // 2 for lo, h in zip(low.tolist(), high.tolist()))
    if r0 * r1 * r2 > 1 << 63:
        raise DataError(f"voxel keys from {low.tolist()} to {high.tolist()} span too many voxels to pack into int64")
    strides = np.array([r1 * r2, r2, 1])
    packed = (keys - low) @ strides
    point_order = np.argsort(packed, kind="stable")
    ordered = packed[point_order]
    first = np.empty(cloud.n, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    voxel_of_point = np.empty(cloud.n, dtype=np.int64)
    voxel_of_point[point_order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    occupied = ordered[starts]  # ascending
    wanted = occupied[:, None] + _OFFSETS @ strides
    slot = np.searchsorted(occupied, wanted)
    found = occupied.take(slot, mode="clip") == wanted
    return NeighborIndex(
        num_points=cloud.n, offsets=_OFFSETS, voxel_of_point=voxel_of_point, point_order=point_order,
        voxel_starts=np.append(starts, cloud.n), neighbor_voxels=np.where(found, slot, -1),
    )


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene: which primitives, how many points, noise.

    `labels` maps each class entry to an integer label, letting distinct
    geometry share a label (defaults to 0..len(classes)-1).  `scale` multiplies
    all clean coordinates before noise is added.
    """

    classes: tuple[str, ...]
    points_per_class: int
    noise_sigma: float
    scale: float = 1.0
    labels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.classes:
            raise UsageError("scene spec lists no classes")
        for name in self.classes:
            if name not in SHAPE_NAMES:
                raise UsageError(f"unknown primitive {name!r}; choose from {SHAPE_NAMES}")
        if self.points_per_class < 1:
            raise UsageError("points_per_class must be >= 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise UsageError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise UsageError(f"scale must be finite and > 0, got {self.scale!r}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(len(self.classes))))
        if len(self.labels) != len(self.classes):
            raise UsageError("labels must pair up with classes")
        if min(self.labels) < 0:
            raise UsageError("labels must be nonnegative")

    @property
    def num_classes(self) -> int:
        return max(self.labels) + 1


def _sample_floor(rng: np.random.Generator, n: int) -> tuple[Array, Array]:
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(0.0, SCENE_EXTENT, n)
    pts[:, 1] = rng.uniform(0.0, SCENE_EXTENT, n)
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    return pts, normals


def _sample_wall(rng: np.random.Generator, n: int) -> tuple[Array, Array]:
    axis = int(rng.integers(0, 2))
    offset = rng.uniform(0.0, SCENE_EXTENT)
    pts = np.zeros((n, 3))
    pts[:, axis] = offset
    pts[:, 1 - axis] = rng.uniform(0.0, SCENE_EXTENT, n)
    pts[:, 2] = rng.uniform(0.0, WALL_HEIGHT, n)
    normals = np.zeros((n, 3))
    normals[:, axis] = 1.0
    return pts, normals


def _sample_box(rng: np.random.Generator, n: int) -> tuple[Array, Array]:
    center = np.array(
        [
            rng.uniform(1.0, SCENE_EXTENT - 1.0),
            rng.uniform(1.0, SCENE_EXTENT - 1.0),
            rng.uniform(0.5, 1.2),
        ]
    )
    half = rng.uniform(0.3, 0.8, 3)
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    face_axis = rng.choice(3, n, p=areas / areas.sum())
    face_sign = rng.choice([-1.0, 1.0], n)
    pts = rng.uniform(-1.0, 1.0, (n, 3)) * half
    pts[np.arange(n), face_axis] = face_sign * half[face_axis]
    normals = np.zeros((n, 3))
    normals[np.arange(n), face_axis] = face_sign
    return center + pts, normals


def _sample_sphere(rng: np.random.Generator, n: int) -> tuple[Array, Array]:
    center = np.array(
        [
            rng.uniform(1.0, SCENE_EXTENT - 1.0),
            rng.uniform(1.0, SCENE_EXTENT - 1.0),
            rng.uniform(0.8, 1.6),
        ]
    )
    radius = rng.uniform(0.3, 0.8)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center + radius * dirs, dirs


_SAMPLERS = {
    "floor": _sample_floor,
    "wall": _sample_wall,
    "box": _sample_box,
    "sphere": _sample_sphere,
}


def generate_scene(seed: int, spec: SceneSpec) -> PointCloud:
    """Deterministic labeled scene: features are noisy coords plus the exact
    surface normal of the generating primitive (c=6)."""
    rng = np.random.default_rng(seed)
    coords, normals, labels = [], [], []
    for name, label in zip(spec.classes, spec.labels):
        pts, nrm = _SAMPLERS[name](rng, spec.points_per_class)
        pts = pts * spec.scale
        if spec.noise_sigma > 0:
            pts = pts + rng.normal(0.0, spec.noise_sigma, pts.shape)
        coords.append(pts)
        normals.append(nrm)
        labels.append(np.full(spec.points_per_class, label, dtype=np.int64))
    coords = np.concatenate(coords)
    feats = np.concatenate([coords, np.concatenate(normals)], axis=1)
    return PointCloud(
        coords=coords,
        feats=feats,
        labels=np.concatenate(labels),
        num_classes=spec.num_classes,
    )


# ---------------------------------------------------------------------------
# text formats


def save_cloud(path, cloud: PointCloud) -> None:
    """A checkpoint whose config block holds `classes=C` and whose records
    are `coords` (n, 3), `feats` (n, c) and `labels` (n,), the labels -1
    when unannotated.

    Non-finite features raise DataError, as `load_cloud` would refuse them.
    """
    if not np.isfinite(cloud.feats).all():
        raise DataError("non-finite features cannot be written to a cloud file")
    store = ParamStore()
    store.add("coords", cloud.coords)
    store.add("feats", cloud.feats)
    store.add("labels", cloud.labels if cloud.labels is not None else np.full(cloud.n, -1.0))
    save_checkpoint(path, store, {"classes": cloud.num_classes})


def read_text(path) -> str:
    """A text file's content, its line ends read as `\n`; bytes that are
    not UTF-8 raise DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def load_cloud(path) -> PointCloud:
    """Read a `save_cloud` file with `load_checkpoint`; malformed content
    raises DataError, and so does a cloud file of the row formats before
    clouds were checkpoints (a `#points` header over hex or decimal rows).
    """
    try:
        config, store = load_checkpoint(path)
    except DataError:
        with open(path, "rb") as fh:
            if fh.read(7) == b"#points":
                raise DataError(
                    f"{path}: a '#points' cloud file, the format before clouds were checkpoints:"
                    " `pointpeft gen-data` with the same spec and seed rewrites it bitwise"
                ) from None
        raise
    classes = config.get("classes", "")
    if list(config) != ["classes"] or not (classes.isascii() and classes.isdigit()):
        raise DataError(f"{path}: the config block must be the one line 'classes=C', C in the digits 0-9")
    if store.names() != ["coords", "feats", "labels"]:
        raise DataError(f"{path}: records must be coords, feats and labels in that order, found {store.names()}")
    coords, feats, labels = (t.data for _, t in store.items())
    num_classes = int(classes)
    if feats.ndim != 2 or labels.shape != feats.shape[:1]:
        raise DataError(f"{path}: feats must be n x c and labels length n, got {feats.shape} and {labels.shape}")
    if not np.isfinite(feats).all():
        raise DataError(f"{path}: feats must be finite")
    if (labels != np.floor(labels)).any() or (labels < -1).any() or (labels >= num_classes).any():
        raise DataError(f"{path}: labels must be integers in [-1, {num_classes})")
    try:
        return PointCloud(coords, feats, None if (labels < 0).all() else labels, num_classes)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


_SPEC_KEYS = {"classes", "points_per_class", "noise_sigma", "scale", "labels"}


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse `key = value` lines; `#` starts a comment."""
    fields: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise DataError(f"scene spec line {ln!r} is not 'key = value'")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key == "seed":
            raise DataError("scene spec key 'seed' is gone; pass the seed as `gen-data --seed`")
        if key not in _SPEC_KEYS:
            raise DataError(f"unknown scene spec key {key!r}")
        fields[key] = value
    for key in ("classes", "points_per_class", "noise_sigma"):
        if key not in fields:
            raise DataError(f"scene spec is missing required key {key!r}")
    try:
        return SceneSpec(
            classes=tuple(v.strip() for v in fields["classes"].split(",") if v.strip()),
            points_per_class=int(fields["points_per_class"]),
            noise_sigma=float(fields["noise_sigma"]),
            scale=float(fields.get("scale", "1.0")),
            labels=tuple(
                int(v) for v in fields.get("labels", "").split(",") if v.strip()
            ),
        )
    except ValueError as exc:
        raise DataError(f"scene spec value malformed: {exc}") from exc


def load_scene_spec(path) -> SceneSpec:
    return parse_scene_spec(read_text(path))


def scene_spec_text(spec: SceneSpec) -> str:
    return "\n".join(
        [
            f"classes = {', '.join(spec.classes)}",
            f"labels = {', '.join(str(v) for v in spec.labels)}",
            f"points_per_class = {spec.points_per_class}",
            f"noise_sigma = {spec.noise_sigma}",
            f"scale = {spec.scale}",
        ]
    )
