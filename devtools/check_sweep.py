#!/usr/bin/env python3
"""Run classpoly.hilbert_mod_p, whose roots come from a sweep of the root
field's trace classes, on the grid pairs with the largest root fields and on
three pairs of large prime fields.

The grid pairs are the split (D, p) with |D| <= 200 and 5 <= p < 60 whose
root field F_{p^m} has GRID_MIN_Q < p^m <= 2^16; the extra pairs are
(-7, 25097), (-7, 40009) and (-24, 251).  Caches are cleared before each
pair, as in a fresh process.  For each pair prints the outcome (`ok` or the
error raised) and the time; an `ok` result of a D in the vendored integer
table must equal that polynomial reduced mod p.  Prints the total and the
slowest pair, and exits 1 if any pair ends otherwise than `ok` or
`UnsupportedLevel` (a candidate whose conductor is beyond the vendored
levels): a sweep either finds the h roots or names why not.

Run from the repository root:  python3 devtools/check_sweep.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cmgate import classpoly, clear_caches  # noqa: E402
from cmgate._numutil import is_prime  # noqa: E402
from cmgate.errors import CmgateError  # noqa: E402

#: grid pairs with a root field of at most this size are left to the tests
GRID_MIN_Q = 4096
EXTRA_PAIRS = ((-7, 25097), (-7, 40009), (-24, 251))


def grid_pairs():
    for a in range(3, 201):
        D = -a
        if D % 4 not in (0, 1):
            continue
        for p in range(5, 60):
            if not is_prime(p) or D % p == 0 or classpoly.kronecker(D, p) != 1:
                continue
            m = classpoly.class_order_of_p(D, p)
            if m is not None and p**m > GRID_MIN_Q:
                yield D, p


def check(D: int, p: int, table: dict) -> tuple[str, float]:
    """(outcome, seconds) of hilbert_mod_p(D, p) from cold caches."""
    clear_caches()
    start = time.perf_counter()
    try:
        H = classpoly.hilbert_mod_p(D, p)
        outcome = "ok"
    except CmgateError as exc:
        H, outcome = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if H is not None and D in table:
        if [c.coeffs[0] for c in H.poly.coeffs] != [c % p for c in table[D]]:
            outcome = "MISMATCH with the vendored polynomial"
    return outcome, seconds


def main() -> None:
    table = classpoly.reference_table()
    pairs = list(grid_pairs())
    print(f"{len(pairs)} grid pairs with {GRID_MIN_Q} < p^m <= 2^16, {len(EXTRA_PAIRS)} extra pairs")
    seconds_of = {}
    unsupported = []
    failed = []
    for D, p in pairs + list(EXTRA_PAIRS):
        outcome, seconds = check(D, p, table)
        seconds_of[D, p] = seconds
        if outcome.startswith("UnsupportedLevel:"):
            unsupported.append((D, p))
        elif outcome != "ok":
            failed.append((D, p))
        print(f"D = {D:5d}  p = {p:5d}  {outcome}  {seconds:.2f} s")
    ok = len(seconds_of) - len(unsupported) - len(failed)
    slowest = max(seconds_of, key=seconds_of.get)
    print(f"{ok} ok, {len(unsupported)} UnsupportedLevel {unsupported}, "
          f"{len(failed)} other {failed}; {sum(seconds_of.values()):.1f} s in total, "
          f"slowest {slowest} at {seconds_of[slowest]:.2f} s")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
