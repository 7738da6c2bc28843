"""Parameter-efficient fine-tuning attachments for the frozen backbone.

Implements linear probing, BitFit, bottleneck adapters, LoRA on the attention
projections, prompt tokens, and the geometry-aware pair of branches: a
spatial adapter (rank-r bottleneck with 27 per-offset kernels over a 3x3x3
voxel stencil, inserted with the positional encoding) and a context adapter
(m latent tokens that attend over all points and are attended back, inserted
after local attention in every block).  All up-projections start at zero so
an attached model initially reproduces the frozen one exactly.

Each hook passes the forward's optional tracer on to its branch, which
reports multiply-adds per site; the context adapter also reports its
attention weights and latent update at `block{i}.ca.stage1`/`.stage2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ParamStore, Tensor
from .backbone import AttnMods, BackboneConfig, expected_layout
from .errors import ContractError, InfeasibleBudgetError, UsageError
from .geometry import NeighborIndex, stencil_offsets

METHODS = (
    "linear",
    "bitfit",
    "adapter",
    "lora",
    "prompt",
    "gem",
    "gem_sa_only",
    "gem_ca_only",
)
SHARING_MODES = ("per_block", "per_stage", "global")

DEFAULT_RANK = 8
DEFAULT_TOKENS = 4
# budget-matched scans keep tokens proportional to rank at the 4:32 default ratio
TOKENS_PER_RANK = 4 / 32


@dataclass(frozen=True)
class PeftConfig:
    """Which method to attach and its capacity knobs."""

    method: str = "gem"
    rank: int = DEFAULT_RANK
    tokens: int = DEFAULT_TOKENS
    sharing: str = "global"
    k: int = 3
    blocks: tuple[int, ...] = ()  # empty means every block

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.sharing not in SHARING_MODES:
            raise UsageError(f"unknown sharing {self.sharing!r}; choose from {SHARING_MODES}")
        if self.rank < 1 or self.tokens < 1:
            raise UsageError("rank and tokens must be >= 1")
        if self.k != 3:
            raise UsageError("stencil size is fixed at k=3")

    def active_blocks(self, total: int) -> tuple[int, ...]:
        if not self.blocks:
            return tuple(range(total))
        if any(b < 0 or b >= total for b in self.blocks):
            raise UsageError(f"insertion blocks {self.blocks} outside [0, {total})")
        return tuple(sorted(set(self.blocks)))

    def to_dict(self) -> dict[str, str]:
        return {
            "method": self.method,
            "rank": str(self.rank),
            "tokens": str(self.tokens),
            "sharing": self.sharing,
            "k": str(self.k),
            "insertion_blocks": ",".join(str(b) for b in self.blocks) or "all",
        }

    @classmethod
    def from_dict(cls, cfg: dict) -> "PeftConfig":
        try:
            raw = str(cfg.get("insertion_blocks", "all"))
            blocks = () if raw == "all" else tuple(int(v) for v in raw.split(","))
            return cls(
                method=str(cfg["method"]),
                rank=int(cfg["rank"]),
                tokens=int(cfg["tokens"]),
                sharing=str(cfg["sharing"]),
                k=int(cfg.get("k", 3)),
                blocks=blocks,
            )
        except (KeyError, ValueError) as exc:
            raise ContractError(f"malformed attachment config: {exc}") from exc

    @property
    def has_spatial(self) -> bool:
        return self.method in ("gem", "gem_sa_only")

    @property
    def has_context(self) -> bool:
        return self.method in ("gem", "gem_ca_only")


@dataclass
class LatentState:
    """Per-forward latent token state; never survives across forward passes."""

    L: Tensor
    sharing: str
    stage: int | None = None


def bitfit_select(store: ParamStore) -> None:
    """Freeze everything, then unfreeze exactly the bias/shift parameters."""
    for name in store.names():
        store.set_frozen(name, not (name.endswith(".bias") or name.endswith(".shift")))


class PeftAttachment:
    """Hook bundle bound to one composed ParamStore.

    The backbone forward calls `input_branch`, `attention_mods`,
    `context_branch`, and `ffn_post` at its fixed insertion points; methods
    not taken by the configured variant are inert.
    """

    def __init__(self, config: PeftConfig, bconfig: BackboneConfig, store: ParamStore):
        self.config = config
        self.bconfig = bconfig
        self.store = store
        self._blocks = set(config.active_blocks(bconfig.blocks))

    def frozen_depth(self) -> int:
        """Block k such that every pass resumes at k from `backbone.frozen_prefix`.

        Linear probing leaves every block alone.  An adapter acts first at
        the `ffn_post` hook of its first block, which a resumed pass applies
        before block k, so that block counts as frozen too.  LoRA, prompts
        and the context adapter act inside their first block.  BitFit trains
        backbone biases and the spatial adapter feeds the stem, so no block
        is frozen for them (nor for `gem`, which carries the spatial adapter).
        """
        method = self.config.method
        if method == "linear":
            return self.bconfig.blocks
        if method in ("bitfit", "gem", "gem_sa_only"):
            return 0
        first = min(self._blocks)
        return first + 1 if method == "adapter" else first

    # -- latent tokens ------------------------------------------------------

    def new_latent(self) -> LatentState | None:
        if not self.config.has_context:
            return None
        return LatentState(L=self.store["peft.ca.latent"], sharing=self.config.sharing)

    # -- insertion hooks ----------------------------------------------------

    def input_branch(self, x0: Tensor, nbr: NeighborIndex | None, tracer=None) -> Tensor | None:
        if not self.config.has_spatial:
            return None
        if nbr is None:
            raise ContractError("spatial adapter requires a neighbor index")
        if nbr.num_points != x0.shape[0]:
            raise ContractError(
                f"neighbor index covers {nbr.num_points} points, features have {x0.shape[0]}"
            )
        return spatial_adapter_branch(x0, nbr, self.store, tracer=tracer)

    def attention_mods(self, block: int) -> AttnMods | None:
        if block not in self._blocks:
            return None
        if self.config.method == "lora":
            pre = f"peft.block{block}.lora"
            return AttnMods(
                lora_q=(self.store[f"{pre}.q_down"], self.store[f"{pre}.q_up"]),
                lora_k=(self.store[f"{pre}.k_down"], self.store[f"{pre}.k_up"]),
            )
        if self.config.method == "prompt":
            pre = f"peft.block{block}.prompt"
            return AttnMods(
                prompt_k=self.store[f"{pre}.pk"],
                prompt_v=self.store[f"{pre}.pv"],
            )
        return None

    def context_branch(self, xn: Tensor, block: int, latent, tracer=None):
        if not self.config.has_context or block not in self._blocks:
            return None, latent
        if latent is None:
            raise ContractError("context adapter forward started without latent state")
        return context_adapter_branch(xn, latent, self.store, block, self.bconfig, tracer=tracer)

    def ffn_post(self, x: Tensor, block: int, tracer=None) -> Tensor:
        if self.config.method != "adapter" or block not in self._blocks:
            return x
        pre = f"peft.block{block}.adapter"
        if tracer is not None:
            tracer.record(f"block{block}.adapter", 2 * x.shape[0] * x.shape[1] * self.config.rank)
        return adapter_branch(x, self.store[f"{pre}.down"], self.store[f"{pre}.up"])


# ---------------------------------------------------------------------------
# branch computations


def _kernel_name(offset, k: int) -> str:
    """`peft.sa.kern.XYZ`: the offset's digits shifted to 0..k-1."""
    return "peft.sa.kern." + "".join(str(int(v) + k // 2) for v in offset)


def adapter_branch(x: Tensor, down: Tensor, up: Tensor) -> Tensor:
    """Bottleneck residual block: x + relu(x W_down) W_up."""
    return ag.add(x, ag.matmul(ag.relu(ag.matmul(x, down)), up))


def spatial_adapter_branch(
    x: Tensor, nbr: NeighborIndex, store: ParamStore, tracer=None
) -> Tensor:
    """Stencil aggregation branch (no residual; the caller adds it).

    Project to r dims, average per occupied voxel, apply one r x r kernel per
    stencil offset and sum (one `ag.stencil` node), ReLU, project back up.
    Empty offsets contribute nothing.
    """
    n, d = x.shape
    down, up = store["peft.sa.down"], store["peft.sa.up"]
    r = down.shape[1]
    vox = ag.group_mean(ag.matmul(x, down), nbr.voxel_of_point, nbr.num_voxels)
    kernels = [store[_kernel_name(off, nbr.k)] for off in nbr.offsets]
    mixed = ag.stencil(vox, nbr.neighbor_voxels, kernels)
    per_point = ag.gather_rows(mixed, nbr.voxel_of_point)
    if tracer is not None:
        tracer.record("sa", n * d * r + len(kernels) * nbr.num_voxels * r * r + n * r * d)
    return ag.matmul(ag.relu(per_point), up)


def context_adapter_branch(
    x: Tensor,
    latent: LatentState,
    store: ParamStore,
    block: int,
    bconfig: BackboneConfig,
    tracer=None,
) -> tuple[Tensor, LatentState]:
    """Two-stage latent attention (no residual on the point path).

    Stage 1: m latent tokens query all n down-projected points.  Stage 2: all
    points query the contextualized tokens, and the result is up-projected.
    The latent state update follows the sharing mode.  A tracer sees the
    stage-1 weights (m, n) with the incoming tokens `L_in` and their update
    `L_c` at `block{i}.ca.stage1`, and the stage-2 weights (n, m) at
    `block{i}.ca.stage2`.
    """
    n, d = x.shape
    pre = f"peft.block{block}.ca"
    q_down, k_down, v_down = store[f"{pre}.q_down"], store[f"{pre}.k_down"], store[f"{pre}.v_down"]
    wq, wk, wv = store[f"{pre}.wq"], store[f"{pre}.wk"], store[f"{pre}.wv"]
    up = store[f"{pre}.up"]
    r = q_down.shape[1]
    if latent.L.shape[1] != r:
        raise ContractError(f"latent width {latent.L.shape[1]} does not match rank {r}")

    if latent.sharing == "per_block":
        L_in = store["peft.ca.latent"]
    elif latent.sharing == "per_stage" and latent.stage != bconfig.stage_of(block):
        L_in = store["peft.ca.latent"]
    else:
        L_in = latent.L
    m = L_in.shape[0]

    scale = 1.0 / math.sqrt(r)
    keys, vals = ag.matmul(x, k_down), ag.matmul(x, v_down)
    L_c, stage1 = ag.attend(ag.matmul(L_in, wq), keys, vals, scale)  # L_c: (m, r)
    mixed, stage2 = ag.attend(ag.matmul(x, q_down), ag.matmul(L_c, wk), ag.matmul(L_c, wv), scale)
    branch = ag.matmul(mixed, up)

    if tracer is not None:
        site = f"block{block}.ca"
        tracer.record(f"{site}.proj", 3 * n * d * r)
        tracer.record(
            f"{site}.stage1", m * r * r + 2 * m * n * r,
            weights=stage1, L_in=L_in.data, L_c=L_c.data,
        )
        tracer.record(
            f"{site}.stage2", 2 * m * r * r + 2 * n * m * r + n * r * d, weights=stage2
        )

    stage = bconfig.stage_of(block)
    return branch, LatentState(L=ag.add(L_in, L_c), sharing=latent.sharing, stage=stage)


# ---------------------------------------------------------------------------
# attachment construction


def _add_peft_params(
    config: PeftConfig, bconfig: BackboneConfig, store: ParamStore, rng: np.random.Generator
) -> None:
    d, r, m = bconfig.d, config.rank, config.tokens
    bound = 1.0 / math.sqrt(d)

    def down(shape):
        return rng.uniform(-bound, bound, shape)

    blocks = config.active_blocks(bconfig.blocks)
    if config.method == "adapter":
        for i in blocks:
            store.add(f"peft.block{i}.adapter.down", down((d, r)))
            store.add(f"peft.block{i}.adapter.up", np.zeros((r, d)))
    elif config.method == "lora":
        for i in blocks:
            store.add(f"peft.block{i}.lora.q_down", down((d, r)))
            store.add(f"peft.block{i}.lora.q_up", np.zeros((r, d)))
            store.add(f"peft.block{i}.lora.k_down", down((d, r)))
            store.add(f"peft.block{i}.lora.k_up", np.zeros((r, d)))
    elif config.method == "prompt":
        for i in blocks:
            store.add(f"peft.block{i}.prompt.pk", down((m, d)))
            store.add(f"peft.block{i}.prompt.pv", down((m, d)))
    if config.has_spatial:
        store.add("peft.sa.down", down((d, r)))
        for off in stencil_offsets(config.k):
            store.add(_kernel_name(off, config.k), down((r, r)))
        store.add("peft.sa.up", np.zeros((r, d)))
    if config.has_context:
        for i in blocks:
            pre = f"peft.block{i}.ca"
            store.add(f"{pre}.q_down", down((d, r)))
            store.add(f"{pre}.k_down", down((d, r)))
            store.add(f"{pre}.v_down", down((d, r)))
            store.add(f"{pre}.wq", down((r, r)))
            store.add(f"{pre}.wk", down((r, r)))
            store.add(f"{pre}.wv", down((r, r)))
            store.add(f"{pre}.up", np.zeros((r, d)))
        store.add("peft.ca.latent", rng.uniform(-1.0 / math.sqrt(r), 1.0 / math.sqrt(r), (m, r)))


def attach(
    config: PeftConfig, store: ParamStore, bconfig: BackboneConfig, seed: int = 0
) -> PeftAttachment:
    """Freeze the backbone, create the method's parameters, wire the hooks.

    The head stays trainable under every method; BitFit additionally
    unfreezes every bias/shift term.
    """
    for name in store.names():
        if name.startswith("peft."):
            raise ContractError("store already carries an attachment")
        store.set_frozen(name, True)
    if config.method == "bitfit":
        bitfit_select(store)
    rng = ag.named_rng(seed, "peft-init")
    _add_peft_params(config, bconfig, store, rng)
    store.set_frozen("head.weight", False)
    store.set_frozen("head.bias", False)
    return PeftAttachment(config, bconfig, store)


# ---------------------------------------------------------------------------
# parameter accounting


def backbone_param_count(bconfig: BackboneConfig) -> int:
    """All backbone plus head scalars, from the declared layout."""
    return sum(int(np.prod(s, dtype=np.int64)) for s in expected_layout(bconfig).values())


def head_param_count(bconfig: BackboneConfig) -> int:
    return bconfig.d * bconfig.num_classes + bconfig.num_classes


def peft_param_count(config: PeftConfig, bconfig: BackboneConfig) -> int:
    """Closed-form count of the scalars a method adds (head excluded)."""
    d, r, m = bconfig.d, config.rank, config.tokens
    nblocks = len(config.active_blocks(bconfig.blocks))
    k3 = config.k**3
    counts = {
        "linear": 0,
        "bitfit": 0,
        "adapter": 2 * d * r * nblocks,
        "lora": 4 * d * r * nblocks,
        "prompt": 2 * m * d * nblocks,
        "gem_sa_only": 2 * r * d + k3 * r * r,
        "gem_ca_only": nblocks * (3 * d * r + 3 * r * r + r * d) + m * r,
    }
    counts["gem"] = counts["gem_sa_only"] + counts["gem_ca_only"]
    return counts[config.method]


def trainable_param_count(config: PeftConfig, bconfig: BackboneConfig) -> int:
    """Scalars an optimizer would update: method params plus the head."""
    count = peft_param_count(config, bconfig) + head_param_count(bconfig)
    if config.method == "bitfit":
        count += sum(
            int(np.prod(shape, dtype=np.int64))
            for name, shape in expected_layout(bconfig).items()
            if (name.endswith(".bias") or name.endswith(".shift"))
            and not name.startswith("head.")
        )
    return count


def trainable_fraction(config: PeftConfig, bconfig: BackboneConfig) -> float:
    total = backbone_param_count(bconfig) + peft_param_count(config, bconfig)
    return trainable_param_count(config, bconfig) / total


def _tokens_for_rank(rank: int) -> int:
    return max(1, int(math.floor(rank * TOKENS_PER_RANK + 0.5)))


def budget_fit(method: str, budget, bconfig: BackboneConfig) -> PeftConfig:
    """Largest configuration of `method` fitting a trainable-fraction budget.

    `budget` is a fraction in (0, 1), or the string "rank=1" to pin the rank
    instead of searching.  Rank is maximized first; token counts follow the
    4:32 tokens-per-rank default ratio (prompt tuning maximizes tokens, its
    only knob).
    """
    if isinstance(budget, str):
        if budget != "rank=1":
            raise UsageError(f"unknown budget mode {budget!r}")
        config = PeftConfig(method=method, rank=1, tokens=_tokens_for_rank(1))
        if method in ("linear", "bitfit", "prompt"):
            config = PeftConfig(method=method)
        return config
    budget = float(budget)
    if not 0.0 < budget < 1.0:
        raise UsageError(f"budget fraction must lie in (0, 1), got {budget}")

    floor = trainable_fraction(PeftConfig(method="linear"), bconfig)
    if budget < floor:
        raise InfeasibleBudgetError(
            f"budget {budget} is below the linear-probe floor {floor:.6f} "
            "(the head is always trainable)"
        )

    if method in ("linear", "bitfit"):
        config = PeftConfig(method=method)
        frac = trainable_fraction(config, bconfig)
        if frac > budget:
            raise InfeasibleBudgetError(
                f"{method} has a fixed trainable fraction {frac:.6f} above budget {budget}"
            )
        return config

    if method == "prompt":
        best = None
        m = 1
        while True:
            config = PeftConfig(method=method, tokens=m)
            if trainable_fraction(config, bconfig) > budget:
                break
            best, m = config, m + 1
        if best is None:
            raise InfeasibleBudgetError(
                f"prompt tuning with m=1 already exceeds budget {budget}"
            )
        return best

    best = None
    r = 1
    while True:
        config = PeftConfig(method=method, rank=r, tokens=_tokens_for_rank(r))
        if trainable_fraction(config, bconfig) > budget:
            break
        best, r = config, r + 1
    if best is None:
        raise InfeasibleBudgetError(
            f"{method} at rank 1 already exceeds budget {budget}"
        )
    return best


# ---------------------------------------------------------------------------
# attachment checkpoints


def save_peft(
    path,
    store: ParamStore,
    config: PeftConfig,
    bconfig: BackboneConfig,
    command: str | None = None,
) -> None:
    """Persist only the attachment and head entries plus both config blocks."""
    sub = ParamStore()
    for name, t in store.items():
        if name.startswith("peft.") or name.startswith("head."):
            sub.add(name, t.data.copy(), frozen=store.frozen(name))
    cfg = dict(config.to_dict())
    cfg["backbone_hash"] = ag.config_hash(bconfig.to_dict())
    ag.save_checkpoint(path, sub, cfg, command)


def load_peft(
    path, backbone_store: ParamStore, bconfig: BackboneConfig
) -> tuple[PeftConfig, ParamStore, PeftAttachment]:
    """Compose a saved attachment with a frozen backbone.

    Fails if the attachment was produced against a different backbone config
    hash, or if the stored entries do not match the method's layout.
    """
    cfg, sub = ag.load_checkpoint(path)
    want_hash = ag.config_hash(bconfig.to_dict())
    got_hash = cfg.pop("backbone_hash", None)
    if got_hash != want_hash:
        raise ContractError(
            f"attachment was trained against backbone hash {got_hash}, "
            f"this backbone hashes to {want_hash}"
        )
    config = PeftConfig.from_dict(cfg)
    store = backbone_store.clone()
    attachment = attach(config, store, bconfig)
    expected = {n for n in store.names() if n.startswith("peft.") or n.startswith("head.")}
    if set(sub.names()) != expected:
        raise ContractError(
            f"attachment entries {sorted(set(sub.names()) ^ expected)} do not match the method layout"
        )
    for name, t in sub.items():
        if store[name].shape != t.shape:
            raise ContractError(f"{name}: stored shape {t.shape} != expected {store[name].shape}")
        store[name].data[:] = t.data
    return config, store, attachment
