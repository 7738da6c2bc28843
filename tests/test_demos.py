"""Smoke tests: demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, tmp_path):
    """The demo's stdout; it runs in `tmp_path`, which also holds its temporary files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scenes_and_serialization_demo_runs(tmp_path):
    out = run_demo("01_scenes_and_serialization.py", tmp_path)
    assert "occupied voxels at voxel_size=0.5" in out
    assert "save/load round trip bitwise equal: True" in out


def test_cli_pipeline_demo_runs(tmp_path):
    """Every command that writes or reads a checkpoint, through the CLI."""
    out = run_demo("07_cli_pipeline.py", tmp_path)
    for command in ("pretrain", "finetune", "eval", "dump-attn", "count-ops", "sweep"):
        assert f"$ pointpeft {command} " in out
    assert "wrote 5 cells to " in out
    assert "method,rank,tokens,sharing,seed,params_pct,miou,macc,allacc,wall_time_s" in out
