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
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Array, ParamStore, Tensor
from .errors import ContractError, ShapeError, UsageError
from .geometry import NeighborIndex, PatchPartition, PointCloud

LN_EPS = 1e-5


def _even_stages(blocks: int, want: int = 4) -> tuple[tuple[int, int], ...]:
    count = min(want, blocks)
    bounds = np.linspace(0, blocks, count + 1).astype(int)
    return tuple((int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a)


def parse_stages(text: str) -> tuple[tuple[int, int], ...]:
    """Stages from their text form, `a:b` block ranges joined by commas;
    ValueError if malformed."""
    return tuple((int(a), int(b)) for a, b in (pair.split(":") for pair in text.split(",")))


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
        if not (math.isfinite(self.voxel_size) and self.voxel_size > 0):
            raise UsageError(f"voxel_size must be finite and > 0, got {self.voxel_size!r}")
        if not self.stages:
            object.__setattr__(self, "stages", _even_stages(self.blocks))
        covered = [i for a, b in self.stages for i in range(a, b)]
        if covered != list(range(self.blocks)):
            raise UsageError(f"stages {self.stages} do not partition [0, {self.blocks})")

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
            stages = parse_stages(str(cfg["stages"]))
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
    return ag.mlp(
        coords, store["backbone.pos.w1"], store["backbone.pos.b1"],
        store["backbone.pos.w2"], store["backbone.pos.b2"],
    )


def ffn(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return ag.mlp(
        x, store[f"{prefix}.fc1.weight"], store[f"{prefix}.fc1.bias"],
        store[f"{prefix}.fc2.weight"], store[f"{prefix}.fc2.bias"],
    )


PROJECTIONS = ("q", "k", "v", "out")


def local_attention(
    x: Tensor,
    part: PatchPartition,
    store: ParamStore,
    prefix: str,
    heads: int,
    lora: tuple[Tensor, Tensor, Tensor, Tensor] | None = None,
    prompts: tuple[Tensor, Tensor] | None = None,
    tracer=None,
    site: str = "",
) -> Tensor:
    """Multi-head scaled dot-product attention independently inside each patch.

    The q, k, v and output projections, any LoRA deltas and prompts, and
    the attention itself form one graph node (`autograd.patch_attention`).
    `lora` is (q_down, q_up, k_down, k_up), each down d x r and up r x d;
    `prompts` is (keys, values), each m x d, prepended to every patch.
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
    weights = [store[f"{prefix}.{proj}.{kind}"] for proj in PROJECTIONS for kind in ("weight", "bias")]

    out, attn = ag.patch_attention(x, weights, part, heads, lora, prompts)
    if tracer is not None:
        tracer.record(f"{site}.attn_proj", 4 * n * d * d)
        if lora is not None:
            tracer.record(f"{site}.lora", 4 * n * d * lora[0].shape[1])
        madds = 2 * attn.shape[0] * part.patch_size * attn.shape[2] * dh
        tracer.record(f"{site}.local_attn", madds, weights=attn)
    return out


@dataclass
class ForwardResult:
    logits: Tensor


class Resume(NamedTuple):
    """Where a pass starts: the residual stream `x` entering block `depth`.

    At depth 0, x is the stem before the attachment's input branch, and
    `state` is what that branch reads of the embedding (the attachment's
    `input_state`, None for an attachment without one).
    """

    depth: int
    x: Tensor
    state: Array | None


def _stem(
    cloud: PointCloud, nbr, attachment, store: ParamStore, config: BackboneConfig, tracer
) -> tuple[Tensor, Array | None]:
    """Embedding plus positional refinement, and the input branch's state."""
    n = cloud.n
    x0 = embed(cloud, store)
    if tracer is not None:
        tracer.record("embed", n * cloud.c * config.d)
    x = ag.add(x0, pos_encode(Tensor(cloud.coords), store))
    if tracer is not None:
        tracer.record("pos", n * 3 * config.d + n * config.d * config.d)
    state = attachment.input_state(x0, nbr) if attachment is not None else None
    return x, state


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
    latent = None
    for i in range(start, stop):
        site = f"block{i}"
        xn = layer_norm(x, store, f"backbone.{site}.ln1")
        lora, prompts = attachment.attention_mods(i) if attachment is not None else (None, None)
        attn = local_attention(
            xn, part, store, f"backbone.{site}.attn", config.heads,
            lora=lora, prompts=prompts, tracer=tracer, site=site,
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


def frozen_resume(
    cloud: PointCloud,
    part: PatchPartition,
    nbr: NeighborIndex | None,
    attachment,
    store: ParamStore,
    config: BackboneConfig,
) -> Resume | None:
    """The point every pass of `attachment` can start from, with no graph.

    For k = `attachment.frozen_depth()`, the stem (with the input branch's
    state) run through blocks 0..k-1 with no attachment.  That is bit for
    bit what a full pass computes up to there, so `forward(..., resume=...)`
    gives its logits.  None when nothing is frozen: no attachment, or a
    depth of None.
    """
    depth = attachment.frozen_depth() if attachment is not None else None
    if depth is None:
        return None
    with ag.no_grad():
        x, state = _stem(cloud, nbr, attachment, store, config, None)
        return Resume(depth, _blocks(x, part, None, store, config, 0, depth, None), state)


def forward(
    cloud: PointCloud,
    part: PatchPartition,
    nbr: NeighborIndex | None,
    attachment,
    store: ParamStore,
    config: BackboneConfig,
    tracer=None,
    resume: Resume | None = None,
) -> ForwardResult:
    """Full pass: embed, positional refinement, B blocks, segmentation head.

    `attachment` is any object exposing the insertion-point hooks
    (input_state, input_branch, attention_mods, context_branch, ffn_post),
    or None for the plain frozen path.  `tracer`, if given, is passed to
    every site and hook; block i reports its output as `x` at `block{i}`.

    `resume`, from `frozen_resume`, skips work a frozen backbone repeats on
    every pass, and the tracer then sees only the sites after it.  At depth
    k > 0 the pass applies block k-1's `ffn_post` hook to the resumed x and
    goes on from block k; at depth 0 it adds the input branch, computed from
    the resumed state, to the resumed stem.
    """
    n = cloud.n
    if part.n != n:
        raise ContractError(f"partition covers {part.n} points, cloud has {n}")
    if nbr is not None and nbr.num_points != n:
        raise ContractError(f"neighbor index covers {nbr.num_points} points, cloud has {n}")

    if resume is None:
        start = 0
        x, state = _stem(cloud, nbr, attachment, store, config, tracer)
    else:
        start, x, state = resume
        if not 0 <= start <= config.blocks:
            raise ContractError(f"resume depth {start} outside [0, {config.blocks}]")
        if x.shape != (n, config.d):
            raise ContractError(f"resumed residual has shape {x.shape}, expected {(n, config.d)}")
    if attachment is not None and start == 0:
        branch = attachment.input_branch(state, nbr, tracer)
        if branch is not None:
            x = ag.add(x, branch)
    elif attachment is not None:
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
