"""Workloads, the timed rounds, the output checks and the metrics.

A run generates its inputs as text files from the workload seed, runs one
warm-up round, then measured rounds until `--seconds` is spent.  Every
round runs every phase in a fixed order: setup -> pretrain -> setup ->
each fine-tune cell -> setup -> eval.  Each end-to-end metric is the median
of its per-round values (for set-up time, the mean of the round's three
setups), so a slow spell on the host falls across all phases of a round
instead of landing on one metric.  With `--trace 1` untraced and traced
rounds alternate; the traced ones give the per-layer metrics, and the
difference between the two kinds is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import oracles
import spans
from pointpeft import autograd as ag
from pointpeft import backbone as bb
from pointpeft import instrumentation as ins
from pointpeft import peft as pf
from pointpeft import training as tr

PHASES = ("setup", "pretrain", "finetune", "eval")
SPLITS = ("source", "target", "heldout")
MIN_ROUNDS = 3  # measured rounds, whatever --seconds says
MIN_PAIRS = 2  # untraced + traced round pairs in a traced run
MAX_REMAINDER_SHARE = 0.01  # of a phase's wall time left outside every wrapped span


@dataclass(frozen=True)
class Split:
    clouds: int
    points_per_class: int  # source scenes have 3 classes, target scenes 4


@dataclass(frozen=True)
class Schedule:
    epochs: int
    learning_rate: float
    batch_size: int


@dataclass(frozen=True)
class Workload:
    name: str
    bconfig: bb.BackboneConfig
    source: Split
    target: Split
    heldout: Split
    pretrain: Schedule
    finetune: Schedule
    cells: tuple[pf.PeftConfig, ...]

    @property
    def needs_neighbors(self) -> bool:
        return any(c.has_spatial for c in self.cells)


SMALL = dict(d=32, blocks=4, heads=4, patch_size=16, num_classes=3, voxel_size=0.5)
GEM = pf.PeftConfig(method="gem", rank=8, tokens=4, sharing="global")

WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance transfer config: dispatch-bound, both GEM branches and
        # the neighbor index.
        Workload(
            name="gem-small",
            bconfig=bb.BackboneConfig(**SMALL),
            source=Split(16, 48),
            target=Split(16, 36),
            heldout=Split(16, 36),
            pretrain=Schedule(epochs=10, learning_rate=1e-2, batch_size=2),
            finetune=Schedule(epochs=5, learning_rate=3e-3, batch_size=8),
            cells=(GEM,),
        ),
        # Same config and data, the five baseline methods: no neighbor index
        # and no GEM branch, so GEM-only work should not move it.
        Workload(
            name="baselines-small",
            bconfig=bb.BackboneConfig(**SMALL),
            source=Split(16, 48),
            target=Split(16, 36),
            heldout=Split(16, 36),
            pretrain=Schedule(epochs=10, learning_rate=1e-2, batch_size=2),
            finetune=Schedule(epochs=5, learning_rate=3e-3, batch_size=8),
            cells=tuple(
                pf.PeftConfig(method=m, rank=8, tokens=4)
                for m in ("linear", "bitfit", "adapter", "lora", "prompt")
            ),
        ),
        # CLI default backbone with ~2k-point clouds: BLAS, memory and the
        # gather scatter dominate.  Run by hand only: its mIoU varies more
        # across data seeds than any bound BENCHMARK.json may set.  Source
        # clouds are small so that pretraining takes enough steps to learn.
        Workload(
            name="gem-large",
            bconfig=bb.BackboneConfig(),
            source=Split(16, 84),
            target=Split(2, 500),
            heldout=Split(4, 500),
            pretrain=Schedule(epochs=3, learning_rate=3e-3, batch_size=1),
            finetune=Schedule(epochs=3, learning_rate=3e-3, batch_size=1),
            cells=(GEM,),
        ),
    )
}


def split_seed(seed: int, split: str) -> int:
    return 1000 * seed + SPLITS.index(split) + 1


def make_inputs(wl: Workload, seed: int, work) -> dict:
    """Write every split as cloud files; return the generated clouds."""
    out = {}
    for split in SPLITS:
        s = getattr(wl, split)
        spec = (tr.source_spec if split == "source" else tr.target_spec)(s.points_per_class)
        tr.write_dataset(os.path.join(work, split), spec, s.clouds, split_seed(seed, split))
        out[split] = tr.generate_dataset(spec, s.clouds, split_seed(seed, split))
    return out


# ---------------------------------------------------------------------------
# tracing


def graph_size(loss) -> tuple[int, int]:
    """Tensors reachable from `loss` and the bytes their arrays hold."""
    seen, stack, nbytes = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        stack.extend(t._parents)
    return len(seen), nbytes


class LayerTrace:
    """Traced-round bookkeeping: spans, graph probes and per-phase totals."""

    def __init__(self):
        self.tracer = spans.Tracer()
        self.probe_phase = None  # measure the graph of the next backward call
        self.graphs: dict[str, list[tuple[int, int]]] = {"pretrain": [], "finetune": []}
        # (phase, span name, under training.evaluate) -> [calls, inclusive s, self s]
        self.totals: dict[tuple[str, str, bool], list] = {}
        self.walls = {p: 0.0 for p in PHASES}
        self.remainders = {p: 0.0 for p in PHASES}
        self.rounds = 0

    def _probe(self, loss) -> None:
        if self.probe_phase is not None:
            self.graphs[self.probe_phase].append(graph_size(loss))
            self.probe_phase = None

    def sites(self):
        """(module, attribute, span name): each function under the name its
        caller looks up."""
        return [
            (tr, "load_dataset", "training.load_dataset"),
            (tr, "load_cloud", "geometry.load_cloud"),
            (bb, "load_backbone", "backbone.load_backbone"),
            (ag, "load_checkpoint", "autograd.load_checkpoint"),
            (tr, "prepare", "training.prepare"),
            (tr, "serialize", "geometry.serialize"),
            (tr, "build_neighbor_index", "geometry.neighbor_index"),
            (tr, "pretrain", "training.pretrain"),
            (tr, "finetune", "training.finetune"),
            (tr, "evaluate", "training.evaluate"),
            (tr, "step", "training.step"),
            (ag, "backward", "autograd.backward"),
            (bb, "forward", "backbone.forward"),
            (bb, "pos_encode", "backbone.pos_encode"),
            (bb, "layer_norm", "backbone.layer_norm"),
            (bb, "local_attention", "backbone.local_attention"),
            (bb, "ffn", "backbone.ffn"),
            (pf, "spatial_adapter_branch", "peft.spatial_adapter"),
            (pf, "context_adapter_branch", "peft.context_adapter"),
            (pf, "adapter_branch", "peft.adapter"),
        ]

    def install(self) -> None:
        self.tracer.install(self.sites(), probes={"autograd.backward": self._probe})

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def phase(self, name: str):
        return self.tracer.span(name)

    def fold(self) -> None:
        """Add this round's spans under a phase to the totals, then drop them."""
        s = self.tracer.spans
        own = spans.self_times(s)
        root = spans.roots(s)
        in_eval = spans.under(s, "training.evaluate")
        for i, (name, start, end, parent) in enumerate(s):
            phase = s[root[i]][0]
            if phase not in PHASES:
                continue  # calls made by the benchmark's own checks
            if parent < 0:
                self.walls[phase] += end - start
                self.remainders[phase] += own[i]
            else:
                row = self.totals.setdefault((phase, name, in_eval[i]), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += own[i]
        self.tracer.spans = []
        self.rounds += 1

    def sum(self, name, phases=PHASES, in_eval=None) -> tuple[int, float, float]:
        calls, incl, own = 0, 0.0, 0.0
        for (phase, n, ev), (c, i, o) in self.totals.items():
            if n == name and phase in phases and (in_eval is None or ev == in_eval):
                calls, incl, own = calls + c, incl + i, own + o
        return calls, incl, own

    def ms_per_call(self, name, phases=PHASES, in_eval=None) -> float:
        calls, incl, _ = self.sum(name, phases, in_eval)
        return 1e3 * incl / calls if calls else 0.0


# ---------------------------------------------------------------------------
# one round


@dataclass
class Round:
    index: int
    traced: bool
    times: dict = field(default_factory=dict)  # phase -> seconds
    setups: list = field(default_factory=list)  # seconds of each setup
    points: dict = field(default_factory=dict)  # phase -> points processed
    mious: list = field(default_factory=list)  # final held-out mIoU per cell
    losses: list = field(default_factory=list)  # (first, last) epoch loss per cell
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def attempt(self, label: str, fn) -> bool:
        """Run one checked operation; `fn` returns a problem string or None."""
        try:
            problem = fn()
        except Exception as exc:  # the round goes on; the operation counts as failed
            problem = f"{type(exc).__name__}: {exc}"
        return self.tally(label, problem)

    def tally(self, label: str, problem) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")
        return not problem


def backbone_bytes(store) -> dict[str, bytes]:
    return {n: t.data.tobytes() for n, t in store.items() if n.startswith("backbone.")}


class Bench:
    """One workload's inputs, reference artifacts and round loop."""

    def __init__(self, wl: Workload, seed: int, work: str, trace: LayerTrace | None):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.trace = trace
        self.generated = make_inputs(wl, seed, work)
        self.ckpt = os.path.join(work, "backbone.ckpt")
        self.reference_ckpt: bytes | None = None
        counts = np.bincount(
            np.concatenate([c.labels for c in self.generated["heldout"]]),
            minlength=wl.bconfig.num_classes,
        )
        self.floor = oracles.majority_miou(counts)
        self.last_tuned: list = []

    def _phase(self, rnd: Round, name: str):
        return self.trace.phase(name) if rnd.traced else nullcontext()

    def _timed(self, rnd: Round, phase: str, fn):
        with self._phase(rnd, phase):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        rnd.times[phase] = rnd.times.get(phase, 0.0) + dt
        if phase == "setup":
            rnd.setups.append(dt)
        return out

    def run_round(self, index: int, traced: bool) -> Round:
        wl = self.wl
        rnd = Round(index=index, traced=traced)
        gc.collect()
        if traced:
            self.trace.install()
        try:
            state: dict = {}
            warm_up = self.reference_ckpt is None
            if warm_up:  # the checkpoint comes first
                rnd.attempt("pretrain", lambda: self._pretrain(rnd, state))
            rnd.attempt("setup", lambda: self._setup(rnd, state))
            if not warm_up:
                rnd.attempt("pretrain", lambda: self._pretrain(rnd, state))
            # Setup takes a tenth of a second, and the host flips between a
            # fast and a slow state that differ by a quarter for a second or
            # two, so one sample says more about the moment than about
            # setup.  Two more setups, before the fine-tune cells and before
            # eval, spread the samples over the round, and the round's value
            # is their mean.  Each phase uses the latest setup's output.
            rnd.attempt("setup", lambda: self._setup(rnd, state))
            for i, cell in enumerate(wl.cells):
                label = f"finetune {cell.method}"
                if "bstore" not in state:
                    rnd.tally(label, "skipped: setup failed")
                else:
                    rnd.attempt(label, lambda: self._finetune(rnd, state, i, cell))
            rnd.attempt("setup", lambda: self._setup(rnd, state))
            tuned = state.get("tuned", {})
            for i, cell in enumerate(wl.cells):
                label = f"eval {cell.method}"
                if i not in tuned:
                    rnd.tally(label, "skipped: fine-tune failed")
                else:
                    rnd.attempt(label, lambda: self._eval(rnd, state, *tuned[i]))
            self.last_tuned = list(tuned.values())
        finally:
            if traced:
                self.trace.uninstall()
                self.trace.fold()
        return rnd

    def _setup(self, rnd: Round, state: dict):
        wl = self.wl

        def setup():
            splits = {s: tr.load_dataset(os.path.join(self.work, s)) for s in SPLITS}
            bconfig, bstore = bb.load_backbone(self.ckpt)
            prepared = tr.prepare(splits["heldout"], bconfig, need_neighbors=wl.needs_neighbors)
            return splits, bconfig, bstore, prepared

        splits, bconfig, bstore, prepared = self._timed(rnd, "setup", setup)
        if bconfig != wl.bconfig:
            return f"checkpoint config {bconfig.to_dict()} != {wl.bconfig.to_dict()}"
        for split in SPLITS:
            got, want = splits[split], self.generated[split]
            if len(got) != len(want):
                return f"{split}: loaded {len(got)} clouds, wrote {len(want)}"
            for a, b in zip(got, want):
                if not (
                    np.array_equal(a.coords, b.coords)
                    and np.array_equal(a.feats, b.feats)
                    and np.array_equal(a.labels, b.labels)
                ):
                    return f"{split}: a loaded cloud differs from the one written"
        state.update(
            splits=splits,
            bstore=bstore,
            frozen_bytes=backbone_bytes(bstore),
            prepared=prepared,
        )
        return None

    def _pretrain(self, rnd: Round, state: dict):
        wl = self.wl
        if "splits" in state:
            source = state["splits"]["source"]
        else:  # warm-up: setup has not run yet
            source = tr.load_dataset(os.path.join(self.work, "source"))
        tconfig = tr.TrainConfig(
            epochs=wl.pretrain.epochs,
            learning_rate=wl.pretrain.learning_rate,
            batch_size=wl.pretrain.batch_size,
            seed=self.seed,
        )
        if rnd.traced:
            self.trace.probe_phase = "pretrain"
        store, _record = self._timed(
            rnd, "pretrain", lambda: tr.pretrain(source, wl.bconfig, tconfig)
        )
        rnd.points["pretrain"] = sum(c.n for c in source) * wl.pretrain.epochs
        path = self.ckpt if self.reference_ckpt is None else self.ckpt + ".round"
        bb.save_backbone(path, store, wl.bconfig)
        with open(path, "rb") as fh:
            written = fh.read()
        if self.reference_ckpt is None:
            self.reference_ckpt = written
        elif written != self.reference_ckpt:
            return "pretraining with the same seed wrote a different checkpoint"
        return None

    def _finetune(self, rnd: Round, state: dict, i: int, cell: pf.PeftConfig):
        wl = self.wl
        target = state["splits"]["target"]
        tconfig = tr.TrainConfig(
            epochs=wl.finetune.epochs,
            learning_rate=wl.finetune.learning_rate,
            batch_size=wl.finetune.batch_size,
            seed=rnd.index,
        )
        if rnd.traced:
            self.trace.probe_phase = "finetune"
        store, attachment, record = self._timed(
            rnd,
            "finetune",
            lambda: tr.finetune(
                state["bstore"], wl.bconfig, cell, target, tconfig,
                eval_clouds=state["splits"]["heldout"],
            ),
        )
        rnd.points["finetune"] = rnd.points.get("finetune", 0) + (
            sum(c.n for c in target) * wl.finetune.epochs
        )
        state.setdefault("tuned", {})[i] = (store, attachment)
        final = record.epochs[-1]
        rnd.mious.append(final.miou)
        rnd.losses.append((record.epochs[0].loss, final.loss))

        before = state["frozen_bytes"]
        changed = {n for n, blob in before.items() if store[n].data.tobytes() != blob}
        if cell.method == "bitfit":
            changed = {n for n in changed if not n.endswith((".bias", ".shift"))}
        if changed:
            return f"frozen backbone entries changed: {sorted(changed)[:4]}"
        if not final.loss < record.epochs[0].loss:
            return f"loss did not fall: {record.epochs[0].loss!r} -> {final.loss!r}"
        if not final.miou > self.floor:
            return f"held-out mIoU {final.miou!r} not above the majority floor {self.floor!r}"
        if cell.method == "gem":
            got = sum(t.numel for n, t in store.items() if not store.frozen(n))
            want = oracles.gem_trainable_count(
                wl.bconfig.d, cell.rank, wl.bconfig.blocks, cell.tokens, wl.bconfig.num_classes
            )
            if got != want:
                return f"gem trains {got} scalars, closed form says {want}"
        return None

    def _eval(self, rnd: Round, state: dict, store, attachment):
        wl = self.wl
        prepared = state["prepared"]
        metrics = self._timed(
            rnd, "eval", lambda: tr.evaluate(store, attachment, prepared, wl.bconfig)
        )
        rnd.points["eval"] = rnd.points.get("eval", 0) + sum(pc.cloud.n for pc in prepared)
        mat = np.zeros((wl.bconfig.num_classes,) * 2, dtype=np.int64)
        with tr.inference_mode(store):
            for pc in prepared:
                out = bb.forward(pc.cloud, pc.part, pc.nbr, attachment, store, wl.bconfig)
                mat += oracles.confusion(
                    out.logits.data.argmax(axis=1), pc.cloud.labels, wl.bconfig.num_classes
                )
        mine = oracles.miou(mat)
        if abs(mine - metrics["miou"]) > 1e-12:
            return f"evaluate says mIoU {metrics['miou']!r}, recomputed {mine!r}"
        return None


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rounds: list[Round]) -> dict:
    def med(values):
        return float(statistics.median(values))

    full = [r for r in rounds if all(p in r.times for p in PHASES)]
    return {
        "setup_s": (med([r.times["setup"] / len(r.setups) for r in full]), "s"),
        "pretrain_points_per_s": (
            med([r.points["pretrain"] / r.times["pretrain"] for r in full]), "points/s"
        ),
        "finetune_points_per_s": (
            med([r.points["finetune"] / r.times["finetune"] for r in full]), "points/s"
        ),
        "eval_points_per_s": (
            med([r.points["eval"] / r.times["eval"] for r in full]), "points/s"
        ),
        "miou": (med([float(np.mean(r.mious)) for r in full if r.mious]), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


MADD_GROUPS = {
    "embed_pos": lambda site: site in ("embed", "pos"),
    "attn_proj": lambda site: site.endswith(".attn_proj"),
    "local_attn": lambda site: site.endswith(".local_attn"),
    "ffn": lambda site: site.endswith(".ffn"),
    "sa": lambda site: site == "sa",
    "ca": lambda site: ".ca." in site,
    "head": lambda site: site == "head",
    "lora": lambda site: site.endswith(".lora"),
    "adapter": lambda site: site.endswith(".adapter"),
}


def group_madds(sites: dict[str, int]) -> dict[str, int]:
    """Sum `OpCounter.sites` by MADD_GROUPS; a site in no group or in two
    raises, so a new count site cannot go missing from the metrics."""
    sums = dict.fromkeys(MADD_GROUPS, 0)
    for site, count in sites.items():
        groups = [g for g, match in MADD_GROUPS.items() if match(site)]
        if len(groups) != 1:
            raise ValueError(f"count site {site!r} falls in groups {groups}, not in one")
        sums[groups[0]] += count
    return sums


def madds(bench: Bench) -> dict[str, float]:
    """Multiply-adds per cloud forward by site group, mean over the cells."""
    wl = bench.wl
    cloud = bench.generated["heldout"][0]
    sums = dict.fromkeys(MADD_GROUPS, 0)
    for store, attachment in bench.last_tuned:
        counter = ins.count_pass(cloud, store, wl.bconfig, attachment)
        for group, count in group_madds(counter.sites).items():
            sums[group] += count
    cells = max(1, len(bench.last_tuned))
    return {g: v / cells for g, v in sums.items()}


def per_layer(bench: Bench, untraced: list[Round], traced: list[Round]) -> dict:
    wl, lt = bench.wl, bench.trace
    rounds = lt.rounds
    cells = len(wl.cells)
    peft_phases = ("finetune", "eval")
    peft_forwards = lt.sum("backbone.forward", peft_phases)[0]
    out = {}

    def put(name, value, unit="ms"):
        out[name] = (float(value), unit)

    put("geometry.load_cloud_ms", lt.ms_per_call("geometry.load_cloud"))
    put("geometry.serialize_ms", lt.ms_per_call("geometry.serialize"))
    put("geometry.neighbor_index_ms", lt.ms_per_call("geometry.neighbor_index"))
    put(
        "geometry.neighbor_index_calls",
        lt.sum("geometry.neighbor_index")[0] / rounds,
        "count",
    )
    put("autograd.load_checkpoint_ms", lt.ms_per_call("autograd.load_checkpoint"))
    for phase, epochs_cells in (
        ("pretrain", wl.pretrain.epochs),
        ("finetune", wl.finetune.epochs * cells),
    ):
        graphs = lt.graphs[phase]
        put(f"autograd.graph_nodes.{phase}", np.mean([g[0] for g in graphs]), "count")
        put(f"autograd.graph_mb.{phase}", np.mean([g[1] for g in graphs]) / 1e6, "MB")
        put(f"autograd.backward_ms.{phase}", lt.ms_per_call("autograd.backward", (phase,)))
        put(
            f"autograd.backward_calls.{phase}",
            lt.sum("autograd.backward", (phase,))[0] / (rounds * epochs_cells),
            "count",
        )
        put(f"training.step_ms.{phase}", lt.ms_per_call("training.step", (phase,)))
        put(
            f"backbone.forward_ms.{phase}",
            lt.ms_per_call("backbone.forward", (phase,), in_eval=False),
        )
    put("backbone.forward_ms.eval", lt.ms_per_call("backbone.forward", ("eval",)))
    put(
        "backbone.forward_calls",
        lt.sum("backbone.forward", ("finetune",))[0] / (rounds * wl.finetune.epochs * cells),
        "count",
    )
    for metric, span in (
        ("backbone.local_attention_ms", "backbone.local_attention"),
        ("backbone.layer_norm_ms", "backbone.layer_norm"),
        ("backbone.ffn_ms", "backbone.ffn"),
        ("backbone.pos_encode_ms", "backbone.pos_encode"),
        ("peft.spatial_adapter_ms", "peft.spatial_adapter"),
        ("peft.context_adapter_ms", "peft.context_adapter"),
        ("peft.adapter_ms", "peft.adapter"),
    ):
        put(metric, 1e3 * lt.sum(span, peft_phases)[1] / peft_forwards)
    put(
        "training.prepare_ms",
        1e3 * lt.sum("training.prepare")[1] / lt.sum("geometry.serialize")[0],
    )
    for phase in ("finetune", "eval"):
        clouds = lt.sum("backbone.forward", (phase,), in_eval=True)[0]
        put(f"training.evaluate_ms.{phase}", 1e3 * lt.sum("training.evaluate", (phase,))[1] / clouds)
    for group, value in madds(bench).items():
        put(f"instrumentation.madds.{group}", value, "madds")

    def med(rs, phase):
        return statistics.median(r.times[phase] for r in rs)

    for phase in PHASES:
        put(f"trace.overhead_ms.{phase}", 1e3 * (med(traced, phase) - med(untraced, phase)))
        put(f"trace.remainder_ms.{phase}", 1e3 * lt.remainders[phase] / rounds)
    base = sum(med(untraced, p) for p in PHASES)
    put("trace.overhead_pct", 100.0 * (sum(med(traced, p) for p in PHASES) - base) / base, "%")
    return out


def self_time_table(lt: LayerTrace) -> dict:
    """Per phase: wall, remainder and each span's calls, inclusive and self
    milliseconds, all per traced round."""
    table = {}
    for phase in PHASES:
        rows = {}
        for (p, name, in_eval), (calls, incl, own) in sorted(lt.totals.items()):
            if p != phase:
                continue
            key = name + (" (in evaluate)" if in_eval else "")
            rows[key] = {
                "calls": calls / lt.rounds,
                "incl_ms": 1e3 * incl / lt.rounds,
                "self_ms": 1e3 * own / lt.rounds,
            }
        selfs = sum(r["self_ms"] for r in rows.values())
        table[phase] = {
            "wall_ms": 1e3 * lt.walls[phase] / lt.rounds,
            "remainder_ms": 1e3 * lt.remainders[phase] / lt.rounds,
            "self_ms_sum": selfs,
            "spans": rows,
        }
    return table


# ---------------------------------------------------------------------------
# the run


def run(args, out_dir) -> int:
    wl = WORKLOADS[args.workload]
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(out_dir, f"work-{stem}-{os.getpid()}")
    trace = LayerTrace() if args.trace else None
    try:
        bench = Bench(wl, args.seed, work, trace)
        rounds = [bench.run_round(0, traced=False)]  # warm-up
        measured: list[Round] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            index = len(rounds)
            if trace is None:
                batch = [bench.run_round(index, traced=False)]
            else:
                batch = [
                    bench.run_round(index, traced=False),
                    bench.run_round(index + 1, traced=True),
                ]
            rounds += batch
            measured += batch
            last = time.perf_counter() - t0
            enough = len(measured) >= (MIN_PAIRS * 2 if trace else MIN_ROUNDS)
            if enough and time.perf_counter() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = True
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_seconds": time.perf_counter() - start,
        "threads": len(os.listdir("/proc/self/task")),
        "majority_miou_floor": bench.floor,
        "rounds": [
            {
                "index": r.index,
                "traced": r.traced,
                "times_s": r.times,
                "setups_s": r.setups,
                "points": r.points,
                "mious": r.mious,
                "losses": r.losses,
                "attempted": r.attempted,
                "failed": r.failed,
                "problems": r.problems,
            }
            for r in rounds
        ],
    }
    if trace is None:
        metrics = end_to_end(measured)
    else:
        untraced = [r for r in measured if not r.traced]
        traced = [r for r in measured if r.traced]
        metrics = per_layer(bench, untraced, traced)
        table = self_time_table(trace)
        # the wrapped library calls must cover each phase: what is left of
        # its wall time outside every span is the benchmark's own glue
        share = max(trace.remainders[p] / trace.walls[p] for p in PHASES)
        correct = share < MAX_REMAINDER_SHARE
        detail["worst_remainder_share"] = share
        detail["self_times"] = table
        detail["trainable_fraction"] = {
            c.method: pf.trainable_fraction(c, wl.bconfig) for c in wl.cells
        }
        print_table(table)
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for r in rounds:
        for problem in r.problems:
            print(f"round {r.index}: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": detail["metrics"],
            }
        )
    )
    return 0


def print_table(table: dict) -> None:
    for phase, info in table.items():
        print(
            f"[{phase}] wall {info['wall_ms']:.2f} ms = self {info['self_ms_sum']:.2f}"
            f" + remainder {info['remainder_ms']:.4f} ms per round"
        )
        for name, row in sorted(info["spans"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(
                f"  {name:42s} calls {row['calls']:8.1f}  incl {row['incl_ms']:10.2f}"
                f"  self {row['self_ms']:10.2f} ms"
            )
