"""Command-line front end.

Binds data generation, pre-training, attachment fine-tuning, evaluation,
budget fitting, instrumentation, and grid sweeps into reproducible
pipelines.  Exit codes: 0 success, 1 usage or data error, 2 contract or
freeze violation, 3 numeric failure.  Every run prints its config hash and
every artifact file embeds the producing command line plus that hash.
"""

from __future__ import annotations

import argparse
import itertools
import shlex
import sys
import time

from . import autograd as ag
from . import backbone as bb
from . import instrumentation as ins
from . import peft as pf
from . import training as tr
from .errors import PointPeftError, UsageError
from .geometry import load_cloud, load_scene_spec, read_text, scene_spec_text


# ---------------------------------------------------------------------------
# flag groups


def _train_flags(p: argparse.ArgumentParser, epochs: int) -> None:
    t = tr.TrainConfig()
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=t.learning_rate)
    p.add_argument("--wd", type=float, default=t.weight_decay)
    p.add_argument("--batch-size", type=int, default=t.batch_size)
    p.add_argument("--seed", type=int, default=t.seed)
    p.add_argument("--optimizer", choices=tr.OPTIMIZERS, default=t.optimizer)
    p.add_argument("--schedule", choices=tr.SCHEDULES, default=t.lr_schedule)


def _backbone_flags(p: argparse.ArgumentParser) -> None:
    b = bb.BackboneConfig()
    p.add_argument("--d", type=int, default=b.d)
    p.add_argument("--blocks", type=int, default=b.blocks)
    p.add_argument("--patch-size", type=int, default=b.patch_size)
    p.add_argument("--heads", type=int, default=b.heads)
    p.add_argument("--ffn-mult", type=int, default=b.ffn_mult)
    p.add_argument("--classes", type=int, default=b.num_classes)
    p.add_argument("--voxel-size", type=float, default=b.voxel_size)
    p.add_argument("--stages", default="", help="comma list of a:b block ranges")


def _peft_flags(p: argparse.ArgumentParser) -> None:
    c = pf.PeftConfig()
    p.add_argument("--method", choices=pf.METHODS, required=True)
    p.add_argument("--rank", type=int, default=c.rank)
    p.add_argument("--tokens", type=int, default=c.tokens)
    p.add_argument("--sharing", choices=pf.SHARING_MODES, default=c.sharing)
    p.add_argument("--insert-blocks", default="all", help="comma list of block ids")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointpeft")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a scene dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="train all backbone parameters")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default="")
    p.add_argument("--record", default="", help="write the run record here")
    _backbone_flags(p)
    _train_flags(p, epochs=50)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="train one attachment on a frozen backbone")
    p.add_argument("--backbone", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default="")
    p.add_argument("--record", default="", help="write the run record here")
    p.add_argument("--data-fraction", type=float, default=1.0)
    _peft_flags(p)
    _train_flags(p, epochs=40)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--backbone", required=True)
    p.add_argument("--peft", default="")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("budget", help="largest config within a trainable fraction")
    p.add_argument("--backbone", required=True)
    p.add_argument("--method", choices=pf.METHODS, required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("dump-attn", help="write latent-token attention rows")
    p.add_argument("--backbone", required=True)
    p.add_argument("--peft", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dump_attn)

    p = sub.add_parser("count-ops", help="multiply-add tally for one forward pass")
    p.add_argument("--backbone", required=True)
    p.add_argument("--peft", default="")
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_count_ops)

    p = sub.add_parser("sweep", help="run a method/rank/tokens/sharing/seed grid")
    p.add_argument("--config", required=True)
    p.add_argument("--backbone", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


# ---------------------------------------------------------------------------
# shared helpers


def _print_hash(h: str) -> None:
    print(f"config hash: {h}")


def _parse(parse, text: str, flag: str):
    try:
        return parse(text)
    except ValueError:
        raise UsageError(f"{flag} {text!r} is malformed") from None


def _bconfig_from_args(args) -> bb.BackboneConfig:
    return bb.BackboneConfig(
        d=args.d,
        blocks=args.blocks,
        patch_size=args.patch_size,
        heads=args.heads,
        ffn_mult=args.ffn_mult,
        num_classes=args.classes,
        voxel_size=args.voxel_size,
        stages=_parse(bb.parse_stages, args.stages, "--stages") if args.stages else (),
    )


def _tconfig_from_args(args) -> tr.TrainConfig:
    return tr.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        weight_decay=args.wd,
        batch_size=args.batch_size,
        seed=args.seed,
        optimizer=args.optimizer,
        lr_schedule=args.schedule,
    )


def _pconfig_from_args(args) -> pf.PeftConfig:
    return pf.PeftConfig(
        method=args.method,
        rank=args.rank,
        tokens=args.tokens,
        sharing=args.sharing,
        blocks=_parse(pf.parse_blocks, args.insert_blocks, "--insert-blocks"),
    )


def _load_model(args) -> tuple[bb.BackboneConfig, ag.ParamStore, pf.PeftAttachment | None, dict]:
    """`--backbone`, with the attachment `--peft` names if it names one, and
    the merged config the printed hash covers."""
    bconfig, store = bb.load_backbone(args.backbone)
    if not args.peft:
        return bconfig, store, None, bconfig.to_dict()
    pconfig, store, attachment = pf.load_peft(args.peft, store, bconfig)
    return bconfig, store, attachment, {**bconfig.to_dict(), **pconfig.to_dict()}


def _write_artifact(path, body: str, command: str, config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{ag.cmd_comment(command)}\n# hash: {config_hash}\n{body}")


def _write_records(args, record: tr.RunRecord, command: str) -> None:
    """The `--metrics` CSV and the `--record` text, where asked for."""
    if args.metrics:
        _write_artifact(args.metrics, record.metrics_csv(), command, record.config_hash)
    if args.record:
        _write_artifact(args.record, record.to_text(), command, record.config_hash)


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_data(args, command: str) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    spec = load_scene_spec(args.spec)
    tr.write_dataset(args.out, spec, args.count, args.seed, command=command)
    _print_hash(ag.config_hash({"spec": scene_spec_text(spec)}))
    print(f"wrote {args.count} clouds to {args.out}")
    return 0


def _cmd_pretrain(args, command: str) -> int:
    bconfig = _bconfig_from_args(args)
    tconfig = _tconfig_from_args(args)
    clouds = tr.load_dataset(args.data)
    store, record = tr.pretrain(clouds, bconfig, tconfig, command=command)
    bb.save_backbone(args.out, store, bconfig, command=command)
    _write_records(args, record, command)
    _print_hash(record.config_hash)
    last = record.epochs[-1]
    print(f"final: loss {last.loss:.4f} miou {last.miou:.4f} allacc {last.allacc:.4f}")
    return 0


def _cmd_finetune(args, command: str) -> int:
    bconfig, bstore = bb.load_backbone(args.backbone)
    pconfig = _pconfig_from_args(args)
    tconfig = _tconfig_from_args(args)
    clouds = tr.load_dataset(args.data)
    store, attachment, record = tr.finetune(
        bstore, bconfig, pconfig, clouds, tconfig,
        data_fraction=args.data_fraction, command=command,
    )
    pf.save_peft(args.out, store, pconfig, bconfig, command=command)
    _write_records(args, record, command)
    _print_hash(record.config_hash)
    last = record.epochs[-1]
    print(
        f"final: loss {last.loss:.4f} miou {last.miou:.4f} "
        f"macc {last.macc:.4f} allacc {last.allacc:.4f} "
        f"trainable {record.trainable}/{record.total}"
    )
    return 0


def _cmd_eval(args, command: str) -> int:
    bconfig, store, attachment, cfg = _load_model(args)
    clouds = tr.load_dataset(args.data)
    need_nbr = attachment is not None and attachment.config.has_spatial
    prepared = tr.prepare(clouds, bconfig, need_neighbors=need_nbr)
    t0 = time.perf_counter()
    metrics = tr.evaluate(store, attachment, prepared, bconfig)
    wall = time.perf_counter() - t0
    _print_hash(ag.config_hash(cfg))
    for key in ("miou", "macc", "allacc"):
        print(f"{key} = {metrics[key]!r}")
    print(f"wall_time_s = {wall:.3f}")  # the evaluation alone, after loading and preparing
    print(f"points_per_s = {sum(c.n for c in clouds) / wall:.1f}")
    return 0


def _cmd_budget(args, command: str) -> int:
    bconfig, _ = bb.load_backbone(args.backbone)
    pconfig = pf.budget_fit(args.method, args.fraction, bconfig)
    fraction = pf.trainable_fraction(pconfig, bconfig)
    _print_hash(ag.config_hash({**bconfig.to_dict(), **pconfig.to_dict()}))
    print(f"method = {pconfig.method}")
    print(f"rank = {pconfig.rank}")
    print(f"tokens = {pconfig.tokens}")
    print(f"trainable = {pf.trainable_param_count(pconfig, bconfig)}")
    print(f"fraction = {fraction!r}")
    return 0


def _cmd_dump_attn(args, command: str) -> int:
    bconfig, store, attachment, cfg = _load_model(args)
    cloud = load_cloud(args.cloud)
    ins.dump_attention(cloud, store, bconfig, attachment, args.out, command=command)
    _print_hash(ag.config_hash(cfg))
    print(f"wrote {args.out}")
    return 0


def _cmd_count_ops(args, command: str) -> int:
    bconfig, store, attachment, cfg = _load_model(args)
    cloud = load_cloud(args.cloud)
    counter = ins.count_pass(cloud, store, bconfig, attachment)
    h = ag.config_hash(cfg)
    _write_artifact(args.out, counter.report_csv(), command, h)
    _print_hash(h)
    print(f"total multiply-adds: {counter.total()}")
    return 0


# ---------------------------------------------------------------------------
# sweep


_SWEEP_LIST_KEYS = ("methods", "ranks", "tokens", "sharing", "seeds", "budgets")
_SWEEP_SCALAR_KEYS = {"epochs": int, "lr": float, "wd": float, "batch_size": int, "data_fraction": float}
# the `TrainConfig` field each training key sets; unset ones keep its defaults
_SWEEP_TRAIN_FIELDS = {"epochs": "epochs", "lr": "learning_rate", "wd": "weight_decay", "batch_size": "batch_size"}


def _sweep_number(key: str, text: str, kind):
    """`text` as `kind` (int or float); a malformed value names its key."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"sweep config {key} = {text!r} is not {what}") from None


def parse_sweep_config(text: str) -> dict:
    """`key = value` lines, each key once; list keys take comma-separated values."""
    out: dict = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"sweep config line {ln!r} is not key = value")
        key, _, value = ln.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            raise UsageError(f"sweep config repeats key {key!r}")
        if key in _SWEEP_LIST_KEYS:
            out[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            if not out[key]:
                raise UsageError(f"sweep config {key} lists no values")
        elif key in _SWEEP_SCALAR_KEYS:
            out[key] = value
        else:
            raise UsageError(f"unknown sweep config key {key!r}")
    if "methods" not in out:
        raise UsageError("sweep config must list methods")
    for m in out["methods"]:
        if m not in pf.METHODS:
            raise UsageError(f"unknown method {m!r} in sweep config")
    return out


def expand_sweep_cells(cfg: dict, bconfig: bb.BackboneConfig) -> list[pf.PeftConfig]:
    """One PeftConfig per grid cell, axes collapsed where a method ignores
    them, duplicates removed."""
    ranks = tuple(_sweep_number("ranks", r, int) for r in cfg.get("ranks", (pf.DEFAULT_RANK,)))
    tokens = tuple(_sweep_number("tokens", m, int) for m in cfg.get("tokens", (pf.DEFAULT_TOKENS,)))
    sharing = tuple(cfg.get("sharing", ("global",)))
    budgets = tuple(_sweep_number("budgets", b, float) for b in cfg.get("budgets", ()))
    cells, seen = [], set()

    def push(pconfig):
        key = (pconfig.method, pconfig.rank, pconfig.tokens, pconfig.sharing)
        if key not in seen:
            seen.add(key)
            cells.append(pconfig)

    for method in cfg["methods"]:
        share_axis = sharing if method in pf.SHARING_METHODS else ("global",)
        if budgets:
            for budget in budgets:
                fitted = pf.budget_fit(method, budget, bconfig)
                for sh in share_axis:
                    push(
                        pf.PeftConfig(
                            method=method, rank=fitted.rank,
                            tokens=fitted.tokens, sharing=sh,
                        )
                    )
            continue
        rank_axis = ranks if method in pf.RANK_METHODS else (pf.DEFAULT_RANK,)
        token_axis = tokens if method in pf.TOKEN_METHODS else (pf.DEFAULT_TOKENS,)
        for r, m, sh in itertools.product(rank_axis, token_axis, share_axis):
            push(pf.PeftConfig(method=method, rank=r, tokens=m, sharing=sh))
    return cells


def _cmd_sweep(args, command: str) -> int:
    cfg = parse_sweep_config(read_text(args.config))
    num = {key: _sweep_number(key, cfg[key], kind) for key, kind in _SWEEP_SCALAR_KEYS.items() if key in cfg}
    train = {"epochs": 5, **{field: num[key] for key, field in _SWEEP_TRAIN_FIELDS.items() if key in num}}
    tconfigs = [
        tr.TrainConfig(seed=_sweep_number("seeds", seed, int), **train) for seed in cfg.get("seeds", ("0",))
    ]
    fraction = num.get("data_fraction", 1.0)
    bconfig, bstore = bb.load_backbone(args.backbone)
    clouds = tr.load_dataset(args.data)
    cells = expand_sweep_cells(cfg, bconfig)

    lines = [ag.cmd_comment(command)]
    lines.append(f"# hash: {ag.config_hash({k: ','.join(map(str, v)) if isinstance(v, tuple) else v for k, v in cfg.items()})}")
    lines.append("method,rank,tokens,sharing,seed,params_pct,miou,macc,allacc,wall_time_s")
    worst = 0
    for pconfig in cells:
        pct = 100.0 * pf.trainable_fraction(pconfig, bconfig)
        for tconfig in tconfigs:
            prefix = (
                f"{pconfig.method},{pconfig.rank},{pconfig.tokens},"
                f"{pconfig.sharing},{tconfig.seed}"
            )
            t0 = time.perf_counter()
            failure = None
            try:
                _store, _att, record = tr.finetune(
                    bstore, bconfig, pconfig, clouds, tconfig,
                    data_fraction=fraction, command=command,
                )
                last = record.epochs[-1]
                miou, rest = repr(last.miou), f"{last.macc!r},{last.allacc!r}"
            except PointPeftError as exc:  # cell isolation; any other error is a bug
                miou, rest, failure = "nan", "nan,nan", f"# cell {prefix} failed: {exc}"
                worst = max(worst, exc.exit_code)
            wall = time.perf_counter() - t0
            lines.append(f"{prefix},{pct!r},{miou},{rest},{wall:.3f}")
            if failure:
                lines.append(failure)
            print(f"cell {prefix}: miou {miou} in {wall:.3f} s", file=sys.stderr)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _print_hash(lines[1].removeprefix("# hash: "))
    print(f"wrote {len(cells) * len(tconfigs)} cells to {args.out}")
    return worst


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = "pointpeft " + shlex.join(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, command)
    except PointPeftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # missing or unreadable paths are data errors, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
