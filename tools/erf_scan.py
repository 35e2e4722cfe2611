"""Exhaustive error scan of GELU's float32 erf against scipy.

    python3 tools/erf_scan.py

Runs ``groundlm.kernels._erf`` (the float32 rational) on every float32 x
with |x| <= 4.5, both signs, in chunks of 2^24 values, and compares each
result with ``scipy.special.erf`` on the same float32 input, which rounds
the float64 erf to float32. Prints the largest absolute error and where it
occurs, and the share of values whose float32 result differs from scipy's.
Beyond |x| = 4 both return +-1. Needs scipy, a test-only dependency; takes
a few minutes on one core and about 350 MiB.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np
from scipy.special import erf as scipy_erf

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from groundlm.kernels import _erf  # noqa: E402

CHUNK = 2**24
SIGN = np.uint32(0x80000000)


def main() -> None:
    start = time.perf_counter()
    top = int(np.float32(4.5).view(np.uint32))  # every x in [0, 4.5] has bits <= top
    worst, worst_x, differ, total = -1.0, 0.0, 0, 0
    for lo in range(0, top + 1, CHUNK):
        bits = np.arange(lo, min(lo + CHUNK, top + 1), dtype=np.uint32)
        for sign in (np.uint32(0), SIGN):
            x = (bits | sign).view(np.float32)
            got = _erf(x.copy())
            want = scipy_erf(x)
            differ += int(np.count_nonzero(got != want))
            total += x.size
            err = np.abs(np.subtract(got, want, dtype=np.float64))
            at = int(err.argmax())
            if err[at] > worst:
                worst, worst_x = float(err[at]), float(x[at])
    print(f"float32 erf, every x with |x| <= 4.5: {total:,} values "
          f"in {time.perf_counter() - start:.0f} s")
    print(f"largest absolute error against scipy.special.erf: {worst:.6g} "
          f"(2^{math.log2(worst):.2f}) at x = {worst_x!r} ({np.float32(worst_x).view(np.uint32):#010x})")
    print(f"values that differ from scipy: {differ:,} ({100.0 * differ / total:.2f}%)")


if __name__ == "__main__":
    main()
