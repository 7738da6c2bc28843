"""End-to-end tests for the command-line front end.

A session-scoped workspace carries one tiny pretrained backbone and two
generated datasets so individual tests stay fast.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import pointpeft.autograd as ag
import pointpeft.backbone as bb
import pointpeft.cli as cli
import pointpeft.instrumentation as ins
import pointpeft.peft as pf
import pointpeft.training as tr
from pointpeft.errors import ContractError, DataError, NumericError, UsageError
from pointpeft.geometry import scene_spec_text

from test_peft import split_kernels


BACKBONE_FLAGS = [
    "--d", "16", "--blocks", "2", "--patch-size", "8", "--heads", "2",
]


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_src = root / "source.cfg"
    spec_src.write_text(scene_spec_text(tr.source_spec(points_per_class=8)) + "\n")
    spec_tgt = root / "target.cfg"
    spec_tgt.write_text(scene_spec_text(tr.target_spec(points_per_class=8)) + "\n")

    src, tgt = root / "src", root / "tgt"
    assert cli.main(["gen-data", "--spec", str(spec_src), "--out", str(src),
                     "--count", "4", "--seed", "1"]) == 0
    assert cli.main(["gen-data", "--spec", str(spec_tgt), "--out", str(tgt),
                     "--count", "4", "--seed", "2"]) == 0

    bb_ckpt = root / "bb.ckpt"
    assert cli.main(["pretrain", "--data", str(src), "--out", str(bb_ckpt),
                     *BACKBONE_FLAGS, "--epochs", "2", "--batch-size", "4",
                     "--seed", "3"]) == 0

    gem_ckpt = root / "gem.ckpt"
    assert cli.main(["finetune", "--backbone", str(bb_ckpt), "--method", "gem",
                     "--rank", "2", "--tokens", "2", "--sharing", "global",
                     "--data", str(tgt), "--epochs", "1", "--batch-size", "4",
                     "--out", str(gem_ckpt),
                     "--metrics", str(root / "gem.csv")]) == 0

    lora_ckpt = root / "lora.ckpt"
    assert cli.main(["finetune", "--backbone", str(bb_ckpt), "--method", "lora",
                     "--rank", "2", "--data", str(tgt), "--epochs", "1",
                     "--batch-size", "4", "--out", str(lora_ckpt)]) == 0

    return {
        "root": root, "spec_src": spec_src, "spec_tgt": spec_tgt,
        "src": src, "tgt": tgt, "bb": bb_ckpt, "gem": gem_ckpt, "lora": lora_ckpt,
    }


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 1

    def test_unknown_command_rejected(self):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag_rejected(self, ws):
        assert cli.main(["gen-data", "--spec", str(ws["spec_src"]),
                         "--out", "x", "--count", "1", "--bogus", "1"]) == 1

    def test_missing_required_flag_rejected(self):
        assert cli.main(["gen-data", "--out", "x", "--count", "1"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_missing_checkpoint_is_clean_data_error(self, ws, capsys):
        code = cli.main(["eval", "--backbone", str(ws["root"] / "nope.ckpt"),
                         "--data", str(ws["tgt"])])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFlagDefaults:
    def test_no_optional_flags_give_the_library_defaults(self):
        parser = cli._build_parser()
        args = parser.parse_args(["finetune", "--backbone", "b", "--data", "d", "--out", "o", "--method", "gem"])
        assert cli._tconfig_from_args(args) == tr.TrainConfig()
        assert cli._pconfig_from_args(args) == pf.PeftConfig(method="gem")
        args = parser.parse_args(["pretrain", "--data", "d", "--out", "o"])
        assert cli._bconfig_from_args(args) == bb.BackboneConfig()
        assert cli._tconfig_from_args(args) == replace(tr.TrainConfig(), epochs=50)


class TestGenData:
    def test_writes_clouds_and_manifest(self, ws):
        names = sorted(os.listdir(ws["src"]))
        assert "manifest.txt" in names and "spec.cfg" in names
        assert sum(n.startswith("cloud_") for n in names) == 4

    def test_prints_config_hash(self, ws, capsys):
        out = ws["root"] / "again"
        assert cli.main(["gen-data", "--spec", str(ws["spec_src"]),
                         "--out", str(out), "--count", "1", "--seed", "1"]) == 0
        assert "config hash: " in capsys.readouterr().out

    def test_rerun_reproduces_cloud_files(self, ws, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["gen-data", "--spec", str(ws["spec_src"]),
                             "--out", str(out), "--count", "2", "--seed", "9"]) == 0
        for name in ("cloud_0000.txt", "cloud_0001.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_one(self, ws, tmp_path, capsys, count):
        out = tmp_path / "o"
        assert cli.main(["gen-data", "--spec", str(ws["spec_src"]), "--out", str(out),
                         "--count", count]) == 1
        assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"
        assert not out.exists()

    def test_bad_spec_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert cli.main(["gen-data", "--spec", str(bad), "--out",
                         str(tmp_path / "o"), "--count", "1"]) == 1

    def test_spec_file_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"classes = floor\xff\n")
        assert cli.main(["gen-data", "--spec", str(bad), "--out",
                         str(tmp_path / "o"), "--count", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err


class TestPretrain:
    def test_checkpoint_embeds_command_and_hash(self, ws):
        text = ws["bb"].read_text()
        assert text.startswith("# cmd: pointpeft pretrain ")
        assert "\n# hash: " in text

    def test_identical_flags_reproduce_checkpoint(self, ws, tmp_path):
        outs = []
        for name in ("r1.ckpt", "r2.ckpt"):
            out = tmp_path / name
            assert cli.main(["pretrain", "--data", str(ws["src"]), "--out", str(out),
                             *BACKBONE_FLAGS, "--epochs", "1", "--batch-size", "4",
                             "--seed", "3"]) == 0
            outs.append(out.read_bytes().split(b"\n", 1)[1])  # drop cmd line diffs
        assert outs[0] == outs[1]

    def test_record_artifact(self, ws, tmp_path, capsys):
        record, csv = tmp_path / "run.txt", tmp_path / "run.csv"
        assert cli.main(["pretrain", "--data", str(ws["src"]), "--out", str(tmp_path / "r.ckpt"),
                         *BACKBONE_FLAGS, "--epochs", "2", "--batch-size", "4", "--seed", "3",
                         "--record", str(record), "--metrics", str(csv)]) == 0
        config_hash = capsys.readouterr().out.split("config hash: ")[1].split()[0]
        lines = record.read_text().splitlines()
        assert lines[0].startswith("# cmd: pointpeft pretrain ") and "--record" in lines[0]
        assert lines[1:5] == ["# hash: " + config_hash, "run-record", "kind = pretrain",
                              "config_hash = " + config_hash]
        assert lines[-3].startswith("epoch_metrics = training forwards, before each step")
        # "epoch 0 loss .. miou .. macc .. allacc ..": the CSV row's values
        rows = [row.split(",") for row in csv.read_text().splitlines()[3:]]
        assert [ln.split()[1::2] for ln in lines[-2:]] == rows

    def test_divergence_exits_three(self, ws, tmp_path, capsys):
        code = cli.main(["pretrain", "--data", str(ws["src"]),
                         "--out", str(tmp_path / "x.ckpt"), *BACKBONE_FLAGS,
                         "--epochs", "16", "--batch-size", "4",
                         "--optimizer", "sgd_momentum", "--lr", "1e12"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
         ("--wd", "-1", "weight_decay"), ("--voxel-size", "nan", "voxel_size")],
    )
    def test_non_finite_number_exits_one(self, ws, tmp_path, capsys, flag, value, field):
        code = cli.main(["pretrain", "--data", str(ws["src"]), "--out", str(tmp_path / "x.ckpt"),
                         *BACKBONE_FLAGS, "--epochs", "1", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite") and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--heads", "0", "heads"), ("--heads", "-4", "heads"), ("--d", "0", "d"),
         ("--ffn-mult", "0", "ffn_mult"), ("--patch-size", "0", "patch_size"),
         ("--classes", "0", "num_classes"), ("--blocks", "0", "blocks")],
    )
    def test_size_below_one_exits_one_before_the_data_loads(self, tmp_path, capsys, flag, value, field):
        code = cli.main(["pretrain", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x.ckpt"),
                         *BACKBONE_FLAGS, "--epochs", "1", flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {field} must be >= 1, got {value}\n"
        assert not (tmp_path / "x.ckpt").exists()

    def test_malformed_stages_is_usage_error(self, ws, tmp_path, capsys):
        code = cli.main(["pretrain", "--data", str(ws["src"]),
                         "--out", str(tmp_path / "x.ckpt"), *BACKBONE_FLAGS,
                         "--stages", "abc", "--epochs", "1"])
        assert code == 1
        assert "--stages 'abc'" in capsys.readouterr().err


class TestFinetune:
    def test_metrics_csv_artifact(self, ws):
        text = (ws["root"] / "gem.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# cmd: pointpeft finetune ")
        assert lines[1].startswith("# hash: ")
        assert lines[2] == "epoch,loss,miou,macc,allacc"
        assert len(lines) == 3 + 1

    def test_prints_hash_and_final_metrics(self, ws, tmp_path, capsys):
        assert cli.main(["finetune", "--backbone", str(ws["bb"]), "--method",
                         "linear", "--data", str(ws["tgt"]), "--epochs", "1",
                         "--batch-size", "4", "--out", str(tmp_path / "l.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "config hash: " in out and "final: loss" in out

    def test_bad_method_rejected(self, ws, tmp_path):
        assert cli.main(["finetune", "--backbone", str(ws["bb"]), "--method",
                         "magic", "--data", str(ws["tgt"]),
                         "--out", str(tmp_path / "x.ckpt")]) == 1

    def test_malformed_insert_blocks_is_usage_error(self, ws, tmp_path, capsys):
        code = cli.main(["finetune", "--backbone", str(ws["bb"]), "--method", "lora",
                         "--insert-blocks", "x", "--data", str(ws["tgt"]),
                         "--epochs", "1", "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "--insert-blocks 'x'" in capsys.readouterr().err


class TestEval:
    def test_eval_peft_checkpoint(self, ws, capsys):
        assert cli.main(["eval", "--backbone", str(ws["bb"]), "--peft",
                         str(ws["gem"]), "--data", str(ws["tgt"])]) == 0
        out = capsys.readouterr().out
        assert "config hash: " in out
        for key in ("miou = ", "macc = ", "allacc = "):
            assert key in out

    def test_eval_backbone_alone(self, ws, capsys):
        assert cli.main(["eval", "--backbone", str(ws["bb"]),
                         "--data", str(ws["src"])]) == 0
        assert "allacc = " in capsys.readouterr().out

    def test_eval_reports_time_and_throughput(self, ws, capsys):
        assert cli.main(["eval", "--backbone", str(ws["bb"]), "--peft",
                         str(ws["gem"]), "--data", str(ws["tgt"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(ln.split(" = ") for ln in lines if " = " in ln)
        assert list(values)[-2:] == ["wall_time_s", "points_per_s"]  # after the metrics
        assert float(values["wall_time_s"]) > 0.0 and float(values["points_per_s"]) > 0.0

    def test_out_of_range_labels_exit_one(self, ws, tmp_path, capsys):
        """Labels the backbone has no class for end in a data error, not a traceback."""
        spec = tmp_path / "wide.cfg"
        wide = replace(tr.target_spec(points_per_class=8), labels=(0, 1, 2, 5))
        spec.write_text(scene_spec_text(wide) + "\n")
        data = tmp_path / "wide"
        assert cli.main(["gen-data", "--spec", str(spec), "--out", str(data),
                         "--count", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--backbone", str(ws["bb"]), "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: label out of range [0, 3): saw 0..5\n"
        assert captured.out == ""

    def test_decimal_cloud_exits_with_data_error_code(self, ws, tmp_path, capsys):
        """A `#points` cloud, with the decimal rows that came before hex or
        with hex rows, the format before clouds were checkpoints, ends in a
        DataError naming `gen-data`, not a traceback."""
        data = tmp_path / "old"
        assert cli.main(["gen-data", "--spec", str(ws["spec_tgt"]), "--out", str(data),
                         "--count", "2", "--seed", "2"]) == 0
        cloud = tr.load_dataset(data)[1]
        rows = np.column_stack([cloud.coords, cloud.feats, cloud.labels])
        header = f"#points {cloud.n} channels {cloud.c} classes {cloud.num_classes}"
        decimal = [" ".join([*(repr(float(v)) for v in row[:-1]), str(int(row[-1]))]) for row in rows]
        for body in (decimal, [ag.encode_hex(row) for row in rows]):
            (data / "cloud_0001.txt").write_text("\n".join([header, *body]) + "\n")
            capsys.readouterr()
            code = cli.main(["eval", "--backbone", str(ws["bb"]), "--data", str(data)])
            assert code == DataError.exit_code
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "cloud_0001.txt" in captured.err
            assert "`pointpeft gen-data` with the same spec and seed" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    def test_mismatched_backbone_hash_exits_two(self, ws, tmp_path, capsys):
        other = tmp_path / "other.ckpt"
        assert cli.main(["pretrain", "--data", str(ws["src"]), "--out", str(other),
                         "--d", "32", "--blocks", "2", "--patch-size", "8",
                         "--heads", "2", "--epochs", "1", "--batch-size", "4"]) == 0
        code = cli.main(["eval", "--backbone", str(other), "--peft",
                         str(ws["gem"]), "--data", str(ws["tgt"])])
        assert code == 2
        assert "hash" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["d", "heads", "patch_size", "num_classes"])
    def test_checkpoint_size_below_one_exits_two(self, ws, tmp_path, capsys, field):
        config, store = bb.load_backbone(ws["bb"])
        bad = tmp_path / "bad.ckpt"
        ag.save_checkpoint(bad, store, {**config.to_dict(), field: "0"})
        code = cli.main(["eval", "--backbone", str(bad), "--data", str(ws["tgt"])])
        assert code == ContractError.exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed backbone config: {field} must be >= 1")

    def test_per_offset_kernel_checkpoint_exits_two(self, ws, tmp_path, capsys):
        """A gem checkpoint holding the 27 `peft.sa.kern.*` records of the
        layout before the one (27, r, r) entry ends in a contract error."""
        old = tmp_path / "old.ckpt"
        split_kernels(ws["gem"], old)
        code = cli.main(["eval", "--backbone", str(ws["bb"]), "--peft", str(old),
                         "--data", str(ws["tgt"])])
        assert code == ContractError.exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "'peft.sa.kern.111'" in captured.err
        assert "re-run `pointpeft finetune`" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


    @pytest.mark.parametrize("method", pf.METHODS)
    def test_eval_reproduces_the_final_miou(self, ws, tmp_path, capsys, method):
        """`eval --peft` on the fine-tune's own data prints the miou its
        record ends with: the checkpoint holds all that the method trained."""
        ckpt, record = tmp_path / "m.ckpt", tmp_path / "run.txt"
        assert cli.main(["finetune", "--backbone", str(ws["bb"]), "--method", method,
                         "--rank", "2", "--tokens", "2", "--data", str(ws["tgt"]),
                         "--epochs", "3", "--batch-size", "2", "--lr", "1e-2",
                         "--out", str(ckpt), "--record", str(record)]) == 0
        last = record.read_text().splitlines()[-1].split()
        capsys.readouterr()
        assert cli.main(["eval", "--backbone", str(ws["bb"]), "--peft", str(ckpt),
                         "--data", str(ws["tgt"])]) == 0
        printed = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines() if " = " in ln)
        assert printed["miou"] == last[last.index("miou") + 1]


class TestBudget:
    def test_prints_fit_and_fraction(self, ws, capsys):
        assert cli.main(["budget", "--backbone", str(ws["bb"]), "--method",
                         "lora", "--fraction", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "rank = " in out and "fraction = " in out
        frac = float(out.split("fraction = ")[1].split()[0])
        assert 0.0 < frac <= 0.05

    def test_infeasible_fraction_exits_one(self, ws, capsys):
        assert cli.main(["budget", "--backbone", str(ws["bb"]), "--method",
                         "lora", "--fraction", "1e-9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fraction_at_least_one_rejected(self, ws):
        assert cli.main(["budget", "--backbone", str(ws["bb"]), "--method",
                         "lora", "--fraction", "1.5"]) == 1


class TestDumpAttn:
    def test_writes_parseable_dump(self, ws, tmp_path):
        out = tmp_path / "attn.csv"
        assert cli.main(["dump-attn", "--backbone", str(ws["bb"]), "--peft",
                         str(ws["gem"]), "--cloud",
                         str(ws["tgt"] / "cloud_0000.txt"), "--out", str(out)]) == 0
        dump = ins.load_attention_dump(out)
        assert sorted(dump) == [0, 1]
        text = out.read_text()
        assert text.startswith("# cmd: pointpeft dump-attn ")

    def test_method_without_global_tokens_exits_one(self, ws, tmp_path, capsys):
        code = cli.main(["dump-attn", "--backbone", str(ws["bb"]), "--peft",
                         str(ws["lora"]), "--cloud",
                         str(ws["tgt"] / "cloud_0000.txt"),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "global tokens" in capsys.readouterr().err


class TestCountOps:
    def test_report_structure(self, ws, tmp_path):
        out = tmp_path / "ops.csv"
        assert cli.main(["count-ops", "--backbone", str(ws["bb"]), "--peft",
                         str(ws["gem"]), "--cloud",
                         str(ws["tgt"] / "cloud_0000.txt"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cmd: ")
        assert lines[1].startswith("# hash: ")
        assert lines[2] == "site,count"
        sites = {ln.split(",")[0] for ln in lines[3:]}
        assert "embed" in sites and "sa" in sites and "block0.ca.stage1" in sites
        for ln in lines[3:]:
            assert int(ln.split(",")[1]) > 0

    def test_backbone_only_pass(self, ws, tmp_path):
        out = tmp_path / "ops.csv"
        assert cli.main(["count-ops", "--backbone", str(ws["bb"]), "--cloud",
                         str(ws["src"] / "cloud_0000.txt"), "--out", str(out)]) == 0
        sites = {ln.split(",")[0] for ln in out.read_text().splitlines()[3:]}
        assert "sa" not in sites and "head" in sites


class TestSweepConfig:
    def test_parse_round_trip(self):
        cfg = cli.parse_sweep_config(
            "methods = linear, gem\nranks = 2, 4\nseeds = 0, 1\nepochs = 1\n"
        )
        assert cfg["methods"] == ("linear", "gem")
        assert cfg["ranks"] == ("2", "4")
        assert cfg["epochs"] == "1"

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown sweep config key"):
            cli.parse_sweep_config("methods = gem\nwidgets = 3\n")

    def test_missing_methods_rejected(self):
        with pytest.raises(Exception, match="must list methods"):
            cli.parse_sweep_config("ranks = 2\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(UsageError, match="repeats key 'methods'"):
            cli.parse_sweep_config("methods = gem\nmethods = lora\nepochs = 3\nepochs = 9")

    def test_axis_collapse(self):
        import pointpeft.backbone as bb

        bconfig = bb.BackboneConfig(d=16, blocks=2, patch_size=8, heads=2)
        cells = cli.expand_sweep_cells(
            {"methods": ("linear", "gem"), "ranks": ("2",),
             "tokens": ("1", "2"), "sharing": ("per_block", "global")},
            bconfig,
        )
        by_method = {}
        for c in cells:
            by_method.setdefault(c.method, []).append(c)
        assert len(by_method["linear"]) == 1  # all axes collapse
        assert len(by_method["gem"]) == 4  # tokens x sharing

    def test_budget_axis_resolves_rank(self):
        import pointpeft.backbone as bb

        bconfig = bb.BackboneConfig(d=16, blocks=2, patch_size=8, heads=2)
        cells = cli.expand_sweep_cells(
            {"methods": ("lora",), "budgets": ("0.05",)}, bconfig
        )
        assert len(cells) == 1
        assert pf.trainable_fraction(cells[0], bconfig) <= 0.05


def grid_text(key, value):
    """A sweep config of two methods for one epoch, with `key = value` set
    in place of the key's line if it has one (a key may appear once)."""
    lines = {"methods": "linear, gem", "epochs": "1", key: value}
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


class TestSweep:
    def test_grid_rows_and_exit_zero(self, ws, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "methods = linear, gem\nranks = 2\ntokens = 1, 2\n"
            "sharing = per_block, global\nseeds = 0, 1\nepochs = 1\n"
            "batch_size = 4\n"
        )
        out = tmp_path / "results.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--backbone",
                         str(ws["bb"]), "--data", str(ws["tgt"]),
                         "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "method,rank,tokens,sharing,seed,params_pct,miou,macc,allacc,wall_time_s"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == (1 + 4) * 2
        for row in rows:
            assert 0.0 < float(row[5]) < 100.0
            for v in row[6:9]:
                assert 0.0 <= float(v) <= 1.0
            assert float(row[9]) > 0.0
        captured = capsys.readouterr()
        assert "config hash: " in captured.out
        # one progress line per finished cell, in row order
        progress = captured.err.splitlines()
        assert [ln.split(":")[0] for ln in progress] == [f"cell {','.join(r[:5])}" for r in rows]
        for ln, row in zip(progress, rows):
            assert ln.endswith(f": miou {row[6]} in {row[9]} s")  # the row's own wall time

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seeds", "0, x"), ("epochs", "abc"), ("lr", "fast"), ("wd", "1e-2e"),
            ("batch_size", "2.5"), ("data_fraction", "half"),
            ("ranks", "two"), ("tokens", "1, many"), ("budgets", "5%"),
        ],
    )
    def test_malformed_number_is_a_usage_error(self, ws, tmp_path, capsys, key, value):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(grid_text(key, value))
        out = tmp_path / "results.csv"
        code = cli.main(["sweep", "--config", str(cfg), "--backbone", str(ws["bb"]),
                         "--data", str(ws["tgt"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep config {key} = ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["methods", "ranks", "tokens", "sharing", "seeds", "budgets"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_exits_one(self, ws, tmp_path, capsys, key, value):
        """An empty list key leaves no cells or no seeds to run (methods,
        ranks, sharing and seeds once did so and exited 0)."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(grid_text(key, value))
        out = tmp_path / "results.csv"
        code = cli.main(["sweep", "--config", str(cfg), "--backbone", str(ws["bb"]),
                         "--data", str(ws["tgt"]), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: sweep config {key} lists no values\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("lr", "nan"), ("wd", "-inf")])
    def test_non_finite_number_is_a_usage_error(self, ws, tmp_path, capsys, key, value):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"methods = linear\nepochs = 1\n{key} = {value}\n")
        out = tmp_path / "results.csv"
        code = cli.main(["sweep", "--config", str(cfg), "--backbone", str(ws["bb"]),
                         "--data", str(ws["tgt"]), "--out", str(out)])
        assert code == 1 and "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_utf8_exits_one(self, ws, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"methods = linear\xff\n")
        code = cli.main(["sweep", "--config", str(cfg), "--backbone", str(ws["bb"]),
                         "--data", str(ws["tgt"]), "--out", str(tmp_path / "results.csv")])
        assert code == 1 and "not UTF-8" in capsys.readouterr().err

    def test_cell_failure_recorded_and_exit_reflects_worst(self, ws, tmp_path, monkeypatch):
        """A typed error exits with its own code."""
        real = tr.finetune
        cases = [
            (NumericError("loss diverged to nan at epoch 0"), 3),
            (DataError("labels outside [0, 3) in annotated cloud"), 1),
        ]
        for error, want in cases:

            def flaky(bstore, bconfig, pconfig, *a, **kw):
                if pconfig.method == "gem":
                    raise error
                return real(bstore, bconfig, pconfig, *a, **kw)

            monkeypatch.setattr(tr, "finetune", flaky)
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text("methods = linear, gem\nranks = 2\ntokens = 1\nseeds = 0\nepochs = 1\nbatch_size = 4\n")
            out = tmp_path / "results.csv"
            code = cli.main(["sweep", "--config", str(cfg), "--backbone",
                             str(ws["bb"]), "--data", str(ws["tgt"]), "--out", str(out)])
            assert code == want, error
            text = out.read_text()
            assert f"failed: {error}" in text
            # the healthy cell still produced a metrics row
            linear_rows = [ln for ln in text.splitlines()
                           if ln.startswith("linear,") and "nan" not in ln]
            assert len(linear_rows) == 1
            gem_rows = [ln for ln in text.splitlines() if ln.startswith("gem,")]
            assert gem_rows and gem_rows[0].split(",")[6:9] == ["nan"] * 3
            assert float(gem_rows[0].split(",")[9]) >= 0.0  # a failed cell keeps its time

    def test_untyped_error_in_a_cell_surfaces(self, ws, tmp_path, monkeypatch):
        """An exception outside PointPeftError is a bug: it ends the sweep
        with its traceback instead of becoming a row of nan."""

        def broken(*a, **kw):
            raise RuntimeError("loss diverged in an untyped way")

        monkeypatch.setattr(tr, "finetune", broken)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("methods = linear\nseeds = 0\nepochs = 1\n")
        out = tmp_path / "results.csv"
        with pytest.raises(RuntimeError, match="untyped way"):
            cli.main(["sweep", "--config", str(cfg), "--backbone",
                      str(ws["bb"]), "--data", str(ws["tgt"]), "--out", str(out)])
        assert not out.exists()


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["newline", "carriage-return"])
class TestLineBreakInCommand:
    """A quoted argument with a line break reaches the command every artifact
    embeds; its `# cmd:` comment must stay one line so the artifact loads."""

    def test_dataset_manifest(self, ws, tmp_path, brk):
        out = tmp_path / f"ds{brk}b"
        assert cli.main(["gen-data", "--spec", str(ws["spec_src"]), "--out", str(out),
                         "--count", "2", "--seed", "1"]) == 0
        assert len(tr.load_dataset(out)) == 2
        cmd = (out / "manifest.txt").read_text().splitlines()[0]
        assert cmd.startswith("# cmd: pointpeft gen-data ") and "ds b' --count 2" in cmd

    def test_artifact(self, ws, tmp_path, brk):
        out = tmp_path / f"ops{brk}b.csv"
        assert cli.main(["count-ops", "--backbone", str(ws["bb"]), "--cloud",
                         str(ws["src"] / "cloud_0000.txt"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cmd: pointpeft count-ops ") and lines[0].endswith("ops b.csv'")
        assert lines[1].startswith("# hash: ") and lines[2] == "site,count"

    def test_sweep_table(self, ws, tmp_path, brk):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("methods = linear\nseeds = 0\nepochs = 1\nbatch_size = 4\n")
        out = tmp_path / f"results{brk}b.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--backbone", str(ws["bb"]),
                         "--data", str(ws["tgt"]), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cmd: pointpeft sweep ") and lines[0].endswith("results b.csv'")
        assert lines[1].startswith("# hash: ")
        assert lines[2].startswith("method,") and lines[3].startswith("linear,")
        assert len(lines) == 4

    def test_attention_dump(self, ws, tmp_path, brk):
        out = tmp_path / f"attn{brk}b.csv"
        assert cli.main(["dump-attn", "--backbone", str(ws["bb"]), "--peft", str(ws["gem"]),
                         "--cloud", str(ws["tgt"] / "cloud_0000.txt"), "--out", str(out)]) == 0
        assert sorted(ins.load_attention_dump(out)) == [0, 1]
        assert out.read_text().splitlines()[0].endswith("attn b.csv'")
