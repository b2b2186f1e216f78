#!/usr/bin/env python3
"""Run classpoly's sampled root collector on every split pair it serves in
the small grid, and on three pairs of large prime fields.

The grid pairs are the split (D, p) with |D| <= 200 and 5 <= p < 60 whose
root field F_{p^m} lies above classpoly.SWEEP_MAX_Q and within
SAMPLING_MAX_Q; the extra pairs are (-7, 25097), (-7, 40009) and (-24, 251).
Caches are cleared before each pair, as in a fresh process.  For each pair
prints the outcome (`ok` or the error raised), the number of draws from the
collector's random stream (`+ sweep` when the stream ran out and the
collector went on through the encodings not yet drawn) and the time; an `ok`
result of a D in the vendored integer table must equal that polynomial
reduced mod p.  Exits 1 if any pair ends otherwise than `ok` or
`UnsupportedLevel` (a candidate whose conductor is beyond the vendored
levels): a complete collector either finds the h roots or names why not.

Run from the repository root:  python3 devtools/check_sampler.py
"""

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cmgate import classpoly, clear_caches  # noqa: E402
from cmgate._numutil import is_prime  # noqa: E402
from cmgate.errors import CmgateError  # noqa: E402

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
            if m is not None and p**m > classpoly.SWEEP_MAX_Q:
                yield D, p


class _CountedRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def _count_sample_draws() -> list:
    """Make classpoly's sample streams count their draws; returns the list
    that collects each stream."""
    streams = []
    original = classpoly.crc_rng

    def counting(*key):
        rng = original(*key)
        if key[0] != "hilbert-sample":
            return rng
        counted = _CountedRandom()
        counted.setstate(rng.getstate())
        streams.append(counted)
        return counted

    classpoly.crc_rng = counting
    return streams


def check(D: int, p: int, streams: list, table: dict) -> tuple[str, int, bool, float]:
    """(outcome, draws, swept, seconds) of hilbert_mod_p(D, p) from cold caches."""
    clear_caches()
    streams.clear()
    start = time.perf_counter()
    try:
        H = classpoly.hilbert_mod_p(D, p)
        outcome = "ok"
    except CmgateError as exc:
        H, outcome = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    draws = sum(s.draws for s in streams)
    swept = draws >= p ** classpoly.class_order_of_p(D, p)
    if H is not None and D in table:
        if [c.coeffs[0] for c in H.poly.coeffs] != [c % p for c in table[D]]:
            outcome = "MISMATCH with the vendored polynomial"
    return outcome, draws, swept, seconds


def main() -> None:
    streams = _count_sample_draws()
    table = classpoly.reference_table()
    pairs = list(grid_pairs())
    print(f"{len(pairs)} grid pairs on the sampled path, {len(EXTRA_PAIRS)} extra pairs")
    total_draws = 0
    total_s = 0.0
    unsupported = []
    failed = []
    for D, p in pairs + list(EXTRA_PAIRS):
        outcome, draws, swept, seconds = check(D, p, streams, table)
        total_draws += draws
        total_s += seconds
        if outcome.startswith("UnsupportedLevel:"):
            unsupported.append((D, p))
        elif outcome != "ok":
            failed.append((D, p))
        sweep = " + sweep" if swept else ""
        print(f"D = {D:5d}  p = {p:5d}  {outcome}  draws {draws}{sweep}  {seconds:.2f} s")
    ok = len(pairs) + len(EXTRA_PAIRS) - len(unsupported) - len(failed)
    print(f"{ok} ok, {len(unsupported)} UnsupportedLevel {unsupported}, "
          f"{len(failed)} other {failed}; {total_draws} draws in {total_s:.1f} s")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
