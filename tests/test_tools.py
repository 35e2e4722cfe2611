"""The scripts under ``tools/`` run end to end on this checkout."""

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
