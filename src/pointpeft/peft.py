"""Parameter-efficient fine-tuning attachments for the frozen backbone.

Implements linear probing, BitFit, bottleneck adapters, LoRA on the attention
projections, prompt tokens, and the geometry-aware pair of branches: a
spatial adapter (rank-r bottleneck with 27 per-offset kernels over a 3x3x3
voxel stencil, held as one (27, r, r) entry, inserted with the positional
encoding) and a context adapter (m latent tokens that attend over all points
and are attended back, inserted after local attention in every block).  All
up-projections start at zero so an attached model initially reproduces the
frozen one exactly.

Each hook passes the forward's optional tracer on to its branch, which
reports multiply-adds per site; the context adapter also reports its
attention weights and latent update at `block{i}.ca.stage1`/`.stage2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Array, ParamStore, Tensor
from .backbone import BackboneConfig, expected_layout
from .errors import ContractError, InfeasibleBudgetError, UsageError
from .geometry import STENCIL_K, NeighborIndex

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
RANK_METHODS = ("adapter", "lora", "gem", "gem_sa_only", "gem_ca_only")
TOKEN_METHODS = ("prompt", "gem", "gem_ca_only")
SHARING_METHODS = ("gem", "gem_ca_only")
SHARING_MODES = ("per_block", "per_stage", "global")

DEFAULT_RANK = 8
DEFAULT_TOKENS = 4
# budget-matched scans keep tokens proportional to rank at the 4:32 default ratio
TOKENS_PER_RANK = 4 / 32


def parse_blocks(text: str) -> tuple[int, ...]:
    """Insertion blocks from their text form: "all" (as ()) or block ids
    joined by commas; ValueError if malformed."""
    return () if text == "all" else tuple(int(v) for v in text.split(","))


@dataclass(frozen=True)
class PeftConfig:
    """Which method to attach and its capacity knobs."""

    method: str = "gem"
    rank: int = DEFAULT_RANK
    tokens: int = DEFAULT_TOKENS
    sharing: str = "global"
    blocks: tuple[int, ...] = ()  # empty means every block

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.sharing not in SHARING_MODES:
            raise UsageError(f"unknown sharing {self.sharing!r}; choose from {SHARING_MODES}")
        if self.rank < 1 or self.tokens < 1:
            raise UsageError("rank and tokens must be >= 1")

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
            "k": str(STENCIL_K),
            "insertion_blocks": ",".join(str(b) for b in self.blocks) or "all",
        }

    @classmethod
    def from_dict(cls, cfg: dict) -> "PeftConfig":
        try:
            blocks = parse_blocks(str(cfg.get("insertion_blocks", "all")))
            config = cls(
                method=str(cfg["method"]),
                rank=int(cfg["rank"]),
                tokens=int(cfg["tokens"]),
                sharing=str(cfg["sharing"]),
                blocks=blocks,
            )
            k = int(cfg.get("k", STENCIL_K))
        except (KeyError, ValueError) as exc:
            raise ContractError(f"malformed attachment config: {exc}") from exc
        if k != STENCIL_K:
            raise UsageError(f"stencil size is fixed at k={STENCIL_K}")
        return config

    @property
    def has_spatial(self) -> bool:
        return self.method in ("gem", "gem_sa_only")

    @property
    def has_context(self) -> bool:
        return self.method in ("gem", "gem_ca_only")


def trains(method: str, name: str) -> bool:
    """Whether `method` trains the store entry `name`: the entries it adds
    and the head under every method, and under BitFit also every backbone
    entry named `*.bias` or `*.shift` (the positional MLP's `b1` and `b2`
    are neither).  Everything else stays frozen."""
    return name.startswith(("peft.", "head.")) or (
        method == "bitfit" and name.endswith((".bias", ".shift"))
    )


class PeftAttachment:
    """Hook bundle bound to one composed ParamStore.

    The backbone forward calls `input_state`, `input_branch`,
    `attention_mods`, `context_branch`, and `ffn_post` at its fixed insertion
    points; methods not taken by the configured variant are inert.
    """

    def __init__(self, config: PeftConfig, bconfig: BackboneConfig, store: ParamStore):
        self.config = config
        self.bconfig = bconfig
        self.store = store
        self._blocks = set(config.active_blocks(bconfig.blocks))

    def frozen_depth(self) -> int | None:
        """Block k such that every pass resumes at k from `backbone.frozen_resume`,
        or None when the stem trains, so that no pass can resume.

        Linear probing leaves every block alone.  An adapter acts first at
        the `ffn_post` hook of its first block, which a resumed pass applies
        before block k, so that block counts as frozen too.  LoRA, prompts
        and the context adapter act inside their first block.  The spatial
        adapter adds its branch to the input of block 0, so only the stem is
        frozen for it (and for `gem`, which carries it).  BitFit trains the
        stem's own biases, so nothing is: None.
        """
        method = self.config.method
        if method == "bitfit":
            return None
        if method == "linear":
            return self.bconfig.blocks
        if method in ("gem", "gem_sa_only"):
            return 0
        first = min(self._blocks)
        return first + 1 if method == "adapter" else first

    # -- insertion hooks ----------------------------------------------------

    def input_state(self, x0: Tensor, nbr: NeighborIndex | None) -> Array | None:
        """What `input_branch` reads of the embedding x0: its voxel means,
        (V, d), for the spatial adapter, else nothing.  A function of x0
        alone, so a fine-tune computes it once per cloud.  The stem is frozen
        wherever the spatial adapter trains, so the means are plain numbers,
        not a graph node; every voxel holds at least one point."""
        if not self.config.has_spatial:
            return None
        if nbr is None:
            raise ContractError("spatial adapter requires a neighbor index")
        if nbr.num_points != x0.shape[0]:
            raise ContractError(
                f"neighbor index covers {nbr.num_points} points, features have {x0.shape[0]}"
            )
        sums = np.zeros((nbr.num_voxels, x0.shape[1]))
        np.add.at(sums, nbr.voxel_of_point, x0.data)
        return sums / np.bincount(nbr.voxel_of_point, minlength=nbr.num_voxels)[:, None]

    def input_branch(self, state, nbr: NeighborIndex | None, tracer=None) -> Tensor | None:
        """The branch added to the stem, from `input_state`'s result."""
        if not self.config.has_spatial:
            return None
        if state is None or nbr is None:
            raise ContractError("spatial adapter needs the voxel means and the neighbor index")
        if state.shape[0] != nbr.num_voxels:
            raise ContractError(
                f"neighbor index has {nbr.num_voxels} voxels, voxel means have {state.shape[0]}"
            )
        return spatial_adapter_branch(state, nbr, self.store, tracer=tracer)

    def attention_mods(self, block: int) -> tuple[tuple[Tensor, ...] | None, ...]:
        """The `lora` and `prompts` that `backbone.local_attention` takes at
        `block`, None for whichever is absent."""
        if block in self._blocks and self.config.method == "lora":
            pre = f"peft.block{block}.lora"
            names = ("q_down", "q_up", "k_down", "k_up")
            return tuple(self.store[f"{pre}.{n}"] for n in names), None
        if block in self._blocks and self.config.method == "prompt":
            pre = f"peft.block{block}.prompt"
            return None, (self.store[f"{pre}.pk"], self.store[f"{pre}.pv"])
        return None, None

    def context_branch(self, xn: Tensor, block: int, latent: Tensor | None, tracer=None):
        """The context adapter's branch at `block` and the latent tokens it
        leaves.  `latent` is what the pass's last insertion block left, None
        before the first; the sharing mode says whether this block starts
        from it or from the stored latent."""
        if not self.config.has_context or block not in self._blocks:
            return None, latent
        sharing = self.config.sharing
        if sharing == "per_stage":
            first, _ = self.bconfig.stages[self.bconfig.stage_of(block)]
            fresh = not any(first <= b < block for b in self._blocks)
        else:
            fresh = sharing == "per_block"
        L_in = self.store["peft.ca.latent"] if latent is None or fresh else latent
        return context_adapter_branch(xn, L_in, self.store, block, tracer=tracer)

    def ffn_post(self, x: Tensor, block: int, tracer=None) -> Tensor:
        if self.config.method != "adapter" or block not in self._blocks:
            return x
        pre = f"peft.block{block}.adapter"
        if tracer is not None:
            tracer.record(f"block{block}.adapter", 2 * x.shape[0] * x.shape[1] * self.config.rank)
        return adapter_branch(x, self.store[f"{pre}.down"], self.store[f"{pre}.up"])


# ---------------------------------------------------------------------------
# branch computations


def adapter_branch(x: Tensor, down: Tensor, up: Tensor) -> Tensor:
    """Bottleneck residual block: x + relu(x W_down) W_up."""
    return ag.add(x, ag.matmul(ag.relu(ag.matmul(x, down)), up))


def spatial_adapter_branch(
    vox: Array, nbr: NeighborIndex, store: ParamStore, tracer=None
) -> Tensor:
    """Stencil aggregation branch (no residual; the caller adds it).

    `vox` holds the voxel means of the embedding, (V, d), from
    `PeftAttachment.input_state`.  Project them to r dims, apply one r x r
    kernel per stencil offset and sum (one `ag.stencil` node), hand each
    point its voxel's row, ReLU, project back up.  Averaging before the
    down-projection is the same linear map as after it, at V instead of n
    rows.  Empty offsets contribute nothing.
    """
    n = nbr.num_points
    num_voxels, d = vox.shape
    down, up = store["peft.sa.down"], store["peft.sa.up"]
    r = down.shape[1]
    kernels = store["peft.sa.kernels"]
    mixed = ag.stencil(ag.matmul(vox, down), nbr.neighbor_voxels, kernels)
    per_point = ag.gather_rows(mixed, nbr.voxel_of_point)
    if tracer is not None:
        tracer.record("sa", num_voxels * d * r + kernels.shape[0] * num_voxels * r * r + n * r * d)
    return ag.matmul(ag.relu(per_point), up)


def context_adapter_branch(
    x: Tensor, L_in: Tensor, store: ParamStore, block: int, tracer=None
) -> tuple[Tensor, Tensor]:
    """Two-stage latent attention (no residual on the point path).

    Stage 1: the m incoming latent tokens `L_in` query all n down-projected
    points, giving their update `L_c`.  Stage 2: all points query the
    contextualized tokens, and the result is up-projected.  Returns the
    branch and the outgoing tokens `L_in + L_c`.  A tracer sees the stage-1
    weights (m, n) with `L_in` and `L_c` at `block{i}.ca.stage1`, and the
    stage-2 weights (n, m) at `block{i}.ca.stage2`.
    """
    n, d = x.shape
    pre = f"peft.block{block}.ca"
    q_down, k_down, v_down = store[f"{pre}.q_down"], store[f"{pre}.k_down"], store[f"{pre}.v_down"]
    wq, wk, wv = store[f"{pre}.wq"], store[f"{pre}.wk"], store[f"{pre}.wv"]
    up = store[f"{pre}.up"]
    r = q_down.shape[1]
    if L_in.shape[1] != r:
        raise ContractError(f"latent width {L_in.shape[1]} does not match rank {r}")
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

    return branch, ag.add(L_in, L_c)


# ---------------------------------------------------------------------------
# attachment construction


def _plan(config: PeftConfig, bconfig: BackboneConfig):
    """(name, shape, init bound) of every entry `config` adds, in creation
    order; entries draw uniformly from [-bound, bound], and bound 0 means
    zeros."""
    d, r, m = bconfig.d, config.rank, config.tokens
    b = 1.0 / math.sqrt(d)
    ca = [(f"ca.{n}", (d, r), b) for n in ("q_down", "k_down", "v_down")]
    ca += [(f"ca.{n}", (r, r), b) for n in ("wq", "wk", "wv")] + [("ca.up", (r, d), 0)]
    per_block = ca if config.has_context else {
        "adapter": [("adapter.down", (d, r), b), ("adapter.up", (r, d), 0)],
        "lora": [
            ("lora.q_down", (d, r), b), ("lora.q_up", (r, d), 0),
            ("lora.k_down", (d, r), b), ("lora.k_up", (r, d), 0),
        ],
        "prompt": [("prompt.pk", (m, d), b), ("prompt.pv", (m, d), b)],
    }.get(config.method, [])
    plan = []
    if config.has_spatial:
        plan += [
            ("peft.sa.down", (d, r), b),
            ("peft.sa.kernels", (STENCIL_K**3, r, r), b),
            ("peft.sa.up", (r, d), 0),
        ]
    blocks = config.active_blocks(bconfig.blocks)
    plan += [(f"peft.block{i}.{n}", shape, bound) for i in blocks for n, shape, bound in per_block]
    if config.has_context:
        plan.append(("peft.ca.latent", (m, r), 1.0 / math.sqrt(r)))
    return plan


def attach(
    config: PeftConfig, store: ParamStore, bconfig: BackboneConfig, seed: int = 0
) -> PeftAttachment:
    """Create the method's entries from its plan, freeze whatever it does
    not train (`trains`), wire the hooks."""
    if any(name.startswith("peft.") for name in store.names()):
        raise ContractError("store already carries an attachment")
    rng = ag.named_rng(seed, "peft-init")
    for name, shape, bound in _plan(config, bconfig):
        store.add(name, rng.uniform(-bound, bound, shape) if bound else np.zeros(shape))
    for name in store.names():
        store.set_frozen(name, not trains(config.method, name))
    return PeftAttachment(config, bconfig, store)


# ---------------------------------------------------------------------------
# parameter accounting


def peft_param_count(config: PeftConfig, bconfig: BackboneConfig) -> int:
    """Scalars the method adds (head excluded), from its plan."""
    return sum(math.prod(shape) for _, shape, _ in _plan(config, bconfig))


def trainable_param_count(config: PeftConfig, bconfig: BackboneConfig) -> int:
    """Scalars an optimizer would update: the entries `trains` selects from
    the backbone layout and the method's plan."""
    entries = [*expected_layout(bconfig).items(), *((n, s) for n, s, _ in _plan(config, bconfig))]
    return sum(math.prod(shape) for name, shape in entries if trains(config.method, name))


def trainable_fraction(config: PeftConfig, bconfig: BackboneConfig) -> float:
    total = sum(math.prod(shape) for shape in expected_layout(bconfig).values())
    return trainable_param_count(config, bconfig) / (total + peft_param_count(config, bconfig))


def _tokens_for_rank(rank: int) -> int:
    return max(1, int(math.floor(rank * TOKENS_PER_RANK + 0.5)))


def budget_fit(method: str, budget: float, bconfig: BackboneConfig) -> PeftConfig:
    """Largest configuration of `method` fitting a trainable-fraction budget.

    `budget` is a fraction in (0, 1).  Rank is maximized first; token counts
    follow the 4:32 tokens-per-rank default ratio (prompt tuning maximizes
    tokens, its only knob).  The fraction rises with the knob, so the search
    doubles it until it overshoots and then bisects: O(log knob) calls of
    `trainable_fraction`.
    """
    budget = float(budget)
    if not 0.0 < budget < 1.0:
        raise UsageError(f"budget fraction must lie in (0, 1), got {budget}")

    floor = trainable_fraction(PeftConfig(method="linear"), bconfig)
    if budget < floor:
        raise InfeasibleBudgetError(
            f"budget {budget} is below the linear-probe floor {floor:.6f} "
            "(the head is always trainable)"
        )

    if method not in RANK_METHODS and method not in TOKEN_METHODS:  # no knob to size
        config = PeftConfig(method=method)
        frac = trainable_fraction(config, bconfig)
        if frac > budget:
            raise InfeasibleBudgetError(
                f"{method} has a fixed trainable fraction {frac:.6f} above budget {budget}"
            )
        return config

    knob = "rank" if method in RANK_METHODS else "tokens"

    def sized(n: int) -> PeftConfig:
        if knob == "rank":
            return PeftConfig(method=method, rank=n, tokens=_tokens_for_rank(n))
        return PeftConfig(method=method, tokens=n)

    def fits(n: int) -> bool:
        return trainable_fraction(sized(n), bconfig) <= budget

    if not fits(1):
        raise InfeasibleBudgetError(f"{method} with {knob} 1 already exceeds budget {budget}")
    lo, hi = 1, 2  # fits(lo); hi not yet tried
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # fits(lo) and not fits(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return sized(lo)


# ---------------------------------------------------------------------------
# attachment checkpoints


def save_peft(
    path,
    store: ParamStore,
    config: PeftConfig,
    bconfig: BackboneConfig,
    command: str | None = None,
) -> None:
    """Persist exactly the entries the method trains (`trains`) plus both
    config blocks."""
    sub = ParamStore()
    for name, t in store.items():
        if trains(config.method, name):
            sub.add(name, t.data.copy(), frozen=store.frozen(name))
    cfg = dict(config.to_dict())
    cfg["backbone_hash"] = ag.config_hash(bconfig.to_dict())
    ag.save_checkpoint(path, sub, cfg, command)


def load_peft(
    path, backbone_store: ParamStore, bconfig: BackboneConfig
) -> tuple[PeftConfig, ParamStore, PeftAttachment]:
    """Compose a saved attachment with a frozen backbone.

    Fails if the attachment was produced against a different backbone config
    hash, or if the stored entries are not exactly those the method trains
    (a BitFit checkpoint written before it held its backbone biases and
    shifts is one such).
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
    expected, got = {n for n in store.names() if trains(config.method, n)}, set(sub.names())
    if got != expected:
        raise ContractError(
            f"attachment checkpoint does not hold the entries {config.method} trains: "
            f"missing {sorted(expected - got)}, unexpected {sorted(got - expected)}; "
            "re-run `pointpeft finetune` to rewrite it"
        )
    for name, t in sub.items():
        if store[name].shape != t.shape:
            raise ContractError(f"{name}: stored shape {t.shape} != expected {store[name].shape}")
        store[name].data[:] = t.data
    return config, store, attachment
