"""Rebuild ``workloads.SNF_LIBRARY``: the SNF matrices of the ingredients
workload, screened so that no run time sits near the 0.1 s budget.

    PYTHONPATH=src python3 perfbench/screen_snf.py    # prints SNF_LIBRARY

Run times of smallest-pivot elimination on random sparse matrices spread
continuously from microseconds to minutes, so a random matrix can land on
either side of any time budget from one run to the next.  This script times
candidate matrices (``workloads.snf_matrix(size, sub_seed)``) of each size
from 14 to 20 with the library of this checkout and keeps sub-seeds that
finish in under 10 ms on every try ("fast") or not within 2 s ("hard"),
a factor of ten or more from the budget either way.  Sizes below 14 always
finish in well under a millisecond and are not screened.
"""

from __future__ import annotations

import signal
import sys
import time

from circleact.gradedtop import IntMatrix, smith_normal_form

import workloads

FAST_S, HARD_S = 0.01, 2.0
WANT_FAST, WANT_HARD = 10, 4


def _timeout(*_):
    raise TimeoutError


def run_time(rows: list[list[int]]) -> float:
    signal.setitimer(signal.ITIMER_REAL, HARD_S)
    t = time.perf_counter()
    try:
        smith_normal_form(IntMatrix.from_rows(rows))
    except TimeoutError:
        return float("inf")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t


def main() -> None:
    signal.signal(signal.SIGALRM, _timeout)
    library = {}
    for size in workloads.SCREENED_SIZES:
        fast, hard = [], []
        sub_seed = 0
        while len(fast) < WANT_FAST or (len(hard) < WANT_HARD and size in workloads.HARD_SIZES):
            rows = workloads.snf_matrix(size, sub_seed)
            t = run_time(rows)
            if t < FAST_S and max(run_time(rows) for _ in range(2)) < FAST_S:
                if len(fast) < WANT_FAST:
                    fast.append(sub_seed)
            elif t == float("inf") and len(hard) < WANT_HARD:
                hard.append(sub_seed)
            sub_seed += 1
        library[size] = {"fast": fast, "hard": hard}
        print(f"size {size}: {sub_seed} candidates", file=sys.stderr)
    print("SNF_LIBRARY = {")
    for size, entry in library.items():
        print(f"    {size}: {entry!r},")
    print("}")


if __name__ == "__main__":
    main()
