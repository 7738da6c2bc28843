"""
The command-line pipeline
=========================

The same workflow as the library demos, driven entirely through the
`pointpeft` command (invoked in-process here).  Every artifact embeds the
producing command line and config hash, so runs are reproducible from the
shell alone.
"""

import tempfile
from pathlib import Path

import pointpeft as pp
from pointpeft.cli import main
from pointpeft.geometry import scene_spec_text

with tempfile.TemporaryDirectory(prefix="pointpeft_demo_") as tmp:
    root = Path(tmp)
    print("working in", root, "\n")

    # write the two scene recipes, then generate datasets from them
    (root / "source.cfg").write_text(scene_spec_text(pp.source_spec(24)) + "\n")
    (root / "target.cfg").write_text(scene_spec_text(pp.target_spec(18)) + "\n")

    steps = [
        ["gen-data", "--spec", str(root / "source.cfg"), "--out", str(root / "src"),
         "--count", "16", "--seed", "1"],
        ["gen-data", "--spec", str(root / "target.cfg"), "--out", str(root / "tgt"),
         "--count", "8", "--seed", "2"],
        ["pretrain", "--data", str(root / "src"), "--out", str(root / "bb.ckpt"),
         "--d", "32", "--blocks", "2", "--patch-size", "8", "--epochs", "10",
         "--batch-size", "4", "--seed", "0"],
        ["finetune", "--backbone", str(root / "bb.ckpt"), "--method", "gem",
         "--rank", "4", "--tokens", "2", "--sharing", "global",
         "--data", str(root / "tgt"), "--epochs", "8", "--batch-size", "4",
         "--out", str(root / "gem.ckpt"), "--metrics", str(root / "gem.csv")],
        ["eval", "--backbone", str(root / "bb.ckpt"), "--peft", str(root / "gem.ckpt"),
         "--data", str(root / "tgt")],
        ["budget", "--backbone", str(root / "bb.ckpt"), "--method", "lora",
         "--fraction", "0.05"],
        ["dump-attn", "--backbone", str(root / "bb.ckpt"), "--peft", str(root / "gem.ckpt"),
         "--cloud", str(root / "tgt" / "cloud_0000.txt"), "--out", str(root / "attn.csv")],
        ["count-ops", "--backbone", str(root / "bb.ckpt"), "--peft", str(root / "gem.ckpt"),
         "--cloud", str(root / "tgt" / "cloud_0000.txt"), "--out", str(root / "ops.csv")],
    ]
    for argv in steps:
        print(f"$ pointpeft {' '.join(argv)}")
        code = main(argv)
        assert code == 0, f"exit {code}"
        print()

    # a sweep runs a whole method grid and lands in one CSV
    (root / "sweep.cfg").write_text(
        "methods = linear, gem_ca_only\nranks = 4\ntokens = 1, 4\n"
        "sharing = per_block, global\nseeds = 0\nepochs = 2\nbatch_size = 4\n"
    )
    argv = ["sweep", "--config", str(root / "sweep.cfg"), "--backbone",
            str(root / "bb.ckpt"), "--data", str(root / "tgt"),
            "--out", str(root / "results.csv")]
    print(f"$ pointpeft {' '.join(argv)}")
    assert main(argv) == 0

    print("\nsweep table:")
    for line in (root / "results.csv").read_text().splitlines():
        if not line.startswith("#"):
            print(" ", line)
