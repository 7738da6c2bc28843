"""Miniature point-cloud transformer.

Per-point embedding, a learned positional MLP, B pre-norm blocks of local
patch attention plus FFN, and a linear segmentation head.  Adaptation hooks
are invoked at fixed insertion points so attachment modules can graft extra
branches without touching frozen weights.

A pass is observed through one optional tracer: any object with a
`record(site, madds=0, **arrays)` method.  Each named call site reports its
analytic multiply-adds and, where there is something to see, live views of
its arrays (attention weights, the residual stream leaving a block); a tracer
copies what it keeps.  Without a tracer the pass copies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ParamStore, Tensor
from .errors import ContractError, ShapeError, UsageError
from .geometry import NeighborIndex, PatchPartition, PointCloud

LN_EPS = 1e-5


def _even_stages(blocks: int, want: int = 4) -> tuple[tuple[int, int], ...]:
    count = min(want, blocks)
    bounds = np.linspace(0, blocks, count + 1).astype(int)
    return tuple((int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a)


@dataclass(frozen=True)
class BackboneConfig:
    """Shape of the toy transformer; `stages` labels contiguous block ranges."""

    d: int = 64
    blocks: int = 8
    patch_size: int = 16
    heads: int = 4
    ffn_mult: int = 4
    num_classes: int = 3
    in_channels: int = 6
    voxel_size: float = 0.5
    stages: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.d % self.heads != 0:
            raise UsageError(f"d={self.d} not divisible by heads={self.heads}")
        if self.blocks < 1:
            raise UsageError("blocks must be >= 1")
        if self.voxel_size <= 0:
            raise UsageError("voxel_size must be positive")
        if not self.stages:
            object.__setattr__(self, "stages", _even_stages(self.blocks))
        covered = [i for a, b in self.stages for i in range(a, b)]
        if covered != list(range(self.blocks)):
            raise UsageError(f"stages {self.stages} do not partition [0, {self.blocks})")

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage_of(self, block: int) -> int:
        for s, (a, b) in enumerate(self.stages):
            if a <= block < b:
                return s
        raise UsageError(f"block {block} outside [0, {self.blocks})")

    def to_dict(self) -> dict[str, str]:
        return {
            "d": str(self.d),
            "blocks": str(self.blocks),
            "patch_size": str(self.patch_size),
            "heads": str(self.heads),
            "ffn_mult": str(self.ffn_mult),
            "num_classes": str(self.num_classes),
            "in_channels": str(self.in_channels),
            "voxel_size": repr(float(self.voxel_size)),
            "stages": ",".join(f"{a}:{b}" for a, b in self.stages),
        }

    @classmethod
    def from_dict(cls, cfg: dict) -> "BackboneConfig":
        try:
            stages = tuple(
                (int(a), int(b))
                for a, b in (pair.split(":") for pair in str(cfg["stages"]).split(","))
            )
            return cls(
                d=int(cfg["d"]),
                blocks=int(cfg["blocks"]),
                patch_size=int(cfg["patch_size"]),
                heads=int(cfg["heads"]),
                ffn_mult=int(cfg["ffn_mult"]),
                num_classes=int(cfg["num_classes"]),
                in_channels=int(cfg["in_channels"]),
                voxel_size=float(cfg["voxel_size"]),
                stages=stages,
            )
        except (KeyError, ValueError) as exc:
            raise ContractError(f"malformed backbone config: {exc}") from exc


def _param_plan(config: BackboneConfig):
    """(name, shape, init) triples; init is a fan-in, "zeros", or "ones"."""
    d, c, h = config.d, config.in_channels, config.ffn_mult * config.d
    plan = [
        ("backbone.embed.weight", (c, d), c),
        ("backbone.embed.bias", (d,), "zeros"),
        ("backbone.pos.w1", (3, d), 3),
        ("backbone.pos.b1", (d,), "zeros"),
        ("backbone.pos.w2", (d, d), d),
        ("backbone.pos.b2", (d,), "zeros"),
    ]
    for i in range(config.blocks):
        pre = f"backbone.block{i}"
        plan += [
            (f"{pre}.ln1.scale", (d,), "ones"),
            (f"{pre}.ln1.shift", (d,), "zeros"),
            (f"{pre}.attn.q.weight", (d, d), d),
            (f"{pre}.attn.q.bias", (d,), "zeros"),
            (f"{pre}.attn.k.weight", (d, d), d),
            (f"{pre}.attn.k.bias", (d,), "zeros"),
            (f"{pre}.attn.v.weight", (d, d), d),
            (f"{pre}.attn.v.bias", (d,), "zeros"),
            (f"{pre}.attn.out.weight", (d, d), d),
            (f"{pre}.attn.out.bias", (d,), "zeros"),
            (f"{pre}.ln2.scale", (d,), "ones"),
            (f"{pre}.ln2.shift", (d,), "zeros"),
            (f"{pre}.ffn.fc1.weight", (d, h), d),
            (f"{pre}.ffn.fc1.bias", (h,), "zeros"),
            (f"{pre}.ffn.fc2.weight", (h, d), h),
            (f"{pre}.ffn.fc2.bias", (d,), "zeros"),
        ]
    plan += [
        ("backbone.ln_out.scale", (d,), "ones"),
        ("backbone.ln_out.shift", (d,), "zeros"),
        ("head.weight", (d, config.num_classes), d),
        ("head.bias", (config.num_classes,), "zeros"),
    ]
    return plan


def expected_layout(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape, _ in _param_plan(config)}


def init_backbone(config: BackboneConfig, seed: int) -> ParamStore:
    """Fresh trainable parameters, deterministic in the seed."""
    rng = ag.named_rng(seed, "init")
    store = ParamStore()
    for name, shape, init in _param_plan(config):
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            bound = 1.0 / math.sqrt(init)
            data = rng.uniform(-bound, bound, shape)
        store.add(name, data)
    return store


def linear(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return ag.affine(x, store[f"{prefix}.weight"], store[f"{prefix}.bias"])


def layer_norm(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return ag.layer_norm(x, store[f"{prefix}.scale"], store[f"{prefix}.shift"], LN_EPS)


def embed(cloud: PointCloud, store: ParamStore) -> Tensor:
    weight = store["backbone.embed.weight"]
    if cloud.c != weight.shape[0]:
        raise ShapeError(
            f"cloud has {cloud.c} feature channels, embedding expects {weight.shape[0]}"
        )
    return ag.affine(Tensor(cloud.feats), weight, store["backbone.embed.bias"])


def pos_encode(coords: Tensor, store: ParamStore) -> Tensor:
    hidden = ag.relu(ag.affine(coords, store["backbone.pos.w1"], store["backbone.pos.b1"]))
    return ag.affine(hidden, store["backbone.pos.w2"], store["backbone.pos.b2"])


def ffn(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return linear(ag.relu(linear(x, store, f"{prefix}.fc1")), store, f"{prefix}.fc2")


@dataclass
class AttnMods:
    """Attachment-supplied modifications applied inside local attention."""

    lora_q: tuple[Tensor, Tensor] | None = None  # (down d x r, up r x d)
    lora_k: tuple[Tensor, Tensor] | None = None
    prompt_k: Tensor | None = None  # m x d, prepended as extra keys
    prompt_v: Tensor | None = None


def local_attention(
    x: Tensor,
    part: PatchPartition,
    store: ParamStore,
    prefix: str,
    heads: int,
    mods: AttnMods | None = None,
    tracer=None,
    site: str = "",
) -> Tensor:
    """Multi-head scaled dot-product attention independently inside each patch.

    Padded slots are masked out before the softmax and dropped from the
    output; rows come back in original point order.  A tracer sees the
    softmax weights, shaped (patches*heads, p, m+p) with any m prompt
    columns first, at `{site}.local_attn`.
    """
    n, d = x.shape
    if part.n != n:
        raise ContractError(f"partition built for {part.n} points, got {n}")
    if d % heads != 0:
        raise ContractError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    mods = mods or AttnMods()

    q = linear(x, store, f"{prefix}.q")
    k = linear(x, store, f"{prefix}.k")
    v = linear(x, store, f"{prefix}.v")
    if tracer is not None:
        tracer.record(f"{site}.attn_proj", 4 * n * d * d)
    if mods.lora_q is not None:
        down, up = mods.lora_q
        q = ag.add(q, ag.matmul(ag.matmul(x, down), up))
        down, up = mods.lora_k
        k = ag.add(k, ag.matmul(ag.matmul(x, down), up))
        if tracer is not None:
            tracer.record(f"{site}.lora", 4 * n * d * down.shape[1])

    out, weights = ag.patch_attention(q, k, v, part.index, heads, mods.prompt_k, mods.prompt_v)
    if tracer is not None:
        madds = 2 * weights.shape[0] * part.patch_size * weights.shape[2] * dh
        tracer.record(f"{site}.local_attn", madds, weights=weights)
    return linear(out, store, f"{prefix}.out")


@dataclass
class ForwardResult:
    logits: Tensor


def _stem(
    cloud: PointCloud, nbr, attachment, store: ParamStore, config: BackboneConfig, tracer
) -> Tensor:
    """Embedding plus positional refinement, plus any input branch."""
    n = cloud.n
    x0 = embed(cloud, store)
    if tracer is not None:
        tracer.record("embed", n * cloud.c * config.d)
    x = ag.add(x0, pos_encode(Tensor(cloud.coords), store))
    if tracer is not None:
        tracer.record("pos", n * 3 * config.d + n * config.d * config.d)
    if attachment is not None:
        branch = attachment.input_branch(x0, nbr, tracer)
        if branch is not None:
            x = ag.add(x, branch)
    return x


def _blocks(
    x: Tensor,
    part: PatchPartition,
    attachment,
    store: ParamStore,
    config: BackboneConfig,
    start: int,
    stop: int,
    tracer,
) -> Tensor:
    """Blocks start..stop-1 on the residual stream x; latent tokens start fresh."""
    n = x.shape[0]
    latent = attachment.new_latent() if attachment is not None else None
    for i in range(start, stop):
        site = f"block{i}"
        xn = layer_norm(x, store, f"backbone.{site}.ln1")
        mods = attachment.attention_mods(i) if attachment is not None else None
        attn = local_attention(
            xn, part, store, f"backbone.{site}.attn", config.heads,
            mods=mods, tracer=tracer, site=site,
        )
        x = ag.add(x, attn)
        if attachment is not None:
            branch, latent = attachment.context_branch(xn, i, latent, tracer)
            if branch is not None:
                x = ag.add(x, branch)
        x = ag.add(x, ffn(layer_norm(x, store, f"backbone.{site}.ln2"), store, f"backbone.{site}.ffn"))
        if tracer is not None:
            tracer.record(f"{site}.ffn", 2 * n * config.d * config.ffn_mult * config.d)
        if attachment is not None:
            x = attachment.ffn_post(x, i, tracer)
        if tracer is not None:
            tracer.record(site, x=x.data)
    return x


def _check_depth(depth: int, config: BackboneConfig) -> None:
    if not 1 <= depth <= config.blocks:
        raise ContractError(f"prefix depth {depth} outside [1, {config.blocks}]")


def frozen_prefix(
    cloud: PointCloud, part: PatchPartition, store: ParamStore, config: BackboneConfig, depth: int
) -> Tensor:
    """The residual stream entering block `depth` of a pass with no attachment.

    It stops before the `ffn_post` hook of block depth-1 and carries no
    graph.  For an attachment that leaves the stem and blocks 0..depth-1
    untouched, it is bit for bit what `forward` computes at that point, so
    `forward(..., resume=(depth, prefix))` gives the full pass's logits.
    """
    _check_depth(depth, config)
    with ag.no_grad():
        x = _stem(cloud, None, None, store, config, None)
        return _blocks(x, part, None, store, config, 0, depth, None)


def forward(
    cloud: PointCloud,
    part: PatchPartition,
    nbr: NeighborIndex | None,
    attachment,
    store: ParamStore,
    config: BackboneConfig,
    tracer=None,
    resume: tuple[int, Tensor] | None = None,
) -> ForwardResult:
    """Full pass: embed, positional refinement, B blocks, segmentation head.

    `attachment` is any object exposing the insertion-point hooks
    (new_latent, input_branch, attention_mods, context_branch, ffn_post),
    or None for the plain frozen path.  `tracer`, if given, is passed to
    every site and hook; block i reports its output as `x` at `block{i}`.

    `resume=(k, x)`, with x from `frozen_prefix(..., k)`, skips the stem and
    blocks 0..k-1: the pass applies block k-1's `ffn_post` hook to x and
    goes on from block k.  The tracer then sees only the sites after that.
    """
    n = cloud.n
    if part.n != n:
        raise ContractError(f"partition covers {part.n} points, cloud has {n}")
    if nbr is not None and nbr.num_points != n:
        raise ContractError(f"neighbor index covers {nbr.num_points} points, cloud has {n}")

    if resume is None:
        start, x = 0, _stem(cloud, nbr, attachment, store, config, tracer)
    else:
        start, x = resume
        _check_depth(start, config)
        if x.shape != (n, config.d):
            raise ContractError(f"resumed residual has shape {x.shape}, expected {(n, config.d)}")
        if attachment is not None:
            x = attachment.ffn_post(x, start - 1, tracer)
    x = _blocks(x, part, attachment, store, config, start, config.blocks, tracer)

    logits = linear(layer_norm(x, store, "backbone.ln_out"), store, "head")
    if tracer is not None:
        tracer.record("head", n * config.d * config.num_classes)
    return ForwardResult(logits=logits)


def save_backbone(path, store: ParamStore, config: BackboneConfig, command: str | None = None) -> None:
    ag.save_checkpoint(path, store, config.to_dict(), command)


def load_backbone(path) -> tuple[BackboneConfig, ParamStore]:
    cfg, store = ag.load_checkpoint(path)
    config = BackboneConfig.from_dict(cfg)
    ag.validate_store_layout(store, expected_layout(config))
    return config, store
