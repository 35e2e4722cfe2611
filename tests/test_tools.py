"""The scripts under ``tools/`` run end to end on this checkout."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_ab_setups_of_a_checkout_against_itself():
    """``ab_steps.py --setups`` times both orders and finds the two sides'
    bundles byte-identical. It runs in a subprocess because the script pins
    the thread variables of the process that imports it."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_steps.py"), "--a", str(ROOT),
         "--b", str(ROOT), "--setups", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    assert "A first: set-up ms" in out and "B first: set-up ms" in out
    assert "geometric mean of both orders" in out
    assert "bundle files byte-identical: True (8 files A, 8 files B)" in out


def test_ab_probes_of_a_checkout_against_itself():
    """``ab_steps.py --probes`` alternates the fine-tune probe after the eval
    passes and prints each side's probe times in both orders."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_steps.py"), "--a", str(ROOT),
         "--b", str(ROOT), "--steps", "2", "--eval-passes", "0", "--probes", "2",
         "--seed", "1"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    assert out.count("  probe     ms  A p25/p50/p75") == 2
    assert "probe     B/A of medians, geometric mean of both orders" in out
    assert out.count("  step sum  s   A ") == 2
    assert "step sum  B/A of sums, geometric mean of both orders" in out
    assert "final parameters bitwise equal: True" in out


def test_trace_run_writes_per_function_times(tmp_path):
    """``trace_run.py`` runs one CLI command under the benchmark's tracer and
    writes each traced name's calls, ms and self ms; the command's own
    outputs are written as usual."""
    bundle = tmp_path / "bundle"
    subprocess.run([sys.executable, "-m", "groundlm", "make-toy-data", "--out", str(bundle),
                    "--n-examples", "200", "--seed", "1"],
                   cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   capture_output=True, timeout=300, check=True)
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_run.py"), "--out", str(trace), "--",
         "pretrain", "--strategy", "NoGrounding", "--vocab", str(bundle / "vocab.txt"),
         "--corpus", str(bundle / "corpus.txt"), "--out-model", str(tmp_path / "m.glmc"),
         "--d", "8", "--n-layers-text", "1", "--n-layers-cross", "1", "--n-heads", "2",
         "--max-len", "8", "--max-steps", "3", "--batch-size", "8", "--eval-every", "100"],
        capture_output=True, text=True, timeout=300, check=True)
    blob = json.loads(trace.read_text())
    assert blob["exit_code"] == 0 and blob["argv"][0] == "pretrain"
    assert (tmp_path / "m.glmc").is_file()
    targets = blob["targets"]
    assert targets["tensor.backward"]["calls"] == 3
    assert targets["model.forward"]["calls"] > 3       # the steps, then validation
    for name, row in targets.items():
        assert row["ms"] >= row["self_ms"] >= 0.0, name
    assert targets["model.forward"]["ms"] > 0.0
