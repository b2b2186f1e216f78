#!/usr/bin/env python3
"""Check ecurve.trace_table against point counts, and the orbits of
ecurve.trace_classes against the element walk of ffield.frobenius, on every
field F_{p^k}, p >= 5, with q = p^k <= FULL_MAX_Q.  Then check the table of
each extension field with FULL_MAX_Q < q <= 2^16 (among them the F_{p^2}
with 3-byte slots) on a seeded sample of SAMPLE orbits.

For every j compared other than 0 and 1728, the table's trace must equal the
count of the fixed model of j's orbit, made once per Frobenius orbit on its
least conjugate (conjugate j have conjugate models, hence one trace).  Every
orbit of trace_classes, of size d, must be the least element of its orbit
followed by its images under ffield.frobenius, and the orbits must partition
the field.  Prints one line per degree k, with its slowest table build, one
memory line per sampled field, one line for the sampled fields and the
total; exits 1 on the first mismatch.

A memory line gives, from tracemalloc, what the field's context holds (its
log and Zech tables), what one trace_classes sweep of it keeps (the classes
and the kept trace table) and the heap peak of that sweep above the context.
Patch ffield._TABLE_MAX in a copy of the tree to size fields above the cut.

Run from the repository root:  python3 devtools/check_trace_table.py
"""

import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cmgate import clear_caches, ecurve, ffield  # noqa: E402
from cmgate._numutil import crc_rng, is_prime  # noqa: E402

#: every j is compared in the fields up to this size
FULL_MAX_Q = 4096
#: the orbits compared in each sampled field
SAMPLE = 40


def fields():
    for p in range(5, FULL_MAX_Q + 1):
        if is_prime(p):
            k = 1
            while p**k <= FULL_MAX_Q:
                yield p, k
                k += 1


def sampled_fields():
    """The extension fields with tables that fields() leaves out."""
    return [(p, k) for p in range(5, 256) if is_prime(p)
            for k in range(2, 7) if FULL_MAX_Q < p**k <= ffield._TABLE_MAX]


def check(p: int, k: int, sample: int | None = None) -> tuple[int, float]:
    """(the number of j compared, the seconds the table took) over F_{p^k}:
    every j, or the least conjugates of sample seeded orbits, and the orbit
    walk when every j is compared; raises SystemExit on a mismatch."""
    ctx = ffield.make_field(p, k)
    start = time.perf_counter()
    trace = ecurve.trace_table(ctx)
    build_s = time.perf_counter() - start
    special = {0, ctx.from_int(1728).encoding()}
    if sample is None:
        encodings = range(ctx.q)
    else:
        rng = crc_rng("check-trace-table", p, k)
        encodings = [rng.randrange(ctx.q) for _ in range(sample)]
    counted = {}
    for n in encodings:
        if n in special:
            continue
        key = ffield.orbit_key(ctx.from_encoding(n))
        if key not in counted:
            model = ecurve.curve_from_j(ctx.from_encoding(key))
            counted[key] = ecurve.frobenius_data(model).t
        if trace(n) != counted[key]:
            sys.exit(f"MISMATCH over F_{p}^{k} at j = {n}: "
                     f"table {trace(n)}, count {counted[key]}")
    if sample is None:
        check_orbits(ctx)
    clear_caches()  # else every swept field keeps its classes and trace table
    return len([n for n in encodings if n not in special]), build_s


def memory(p: int, k: int) -> str:
    """The memory line of F_{p^k}, a field whose context no check built yet."""
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    ctx = ffield.make_field(p, k)
    tables = tracemalloc.get_traced_memory()[0] - start
    tracemalloc.reset_peak()
    classes = ecurve.trace_classes(ctx)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del classes
    clear_caches()
    mib = 1 << 20
    return (f"F_{p}^{k}: tables {tables / mib:.2f} MiB, classes kept "
            f"{(held - start - tables) / mib:.2f} MiB, classes peak "
            f"{(peak - start - tables) / mib:.2f} MiB")


def check_orbits(ctx) -> None:
    """The orbits of trace_classes(ctx) against the ffield.frobenius walk of
    every element, ascending; raises SystemExit on a mismatch."""
    classes = ecurve.trace_classes(ctx)
    for (d, _), orbits in classes.items():
        if any(len(orbit) != d for orbit in orbits):
            sys.exit(f"ORBIT SIZE MISMATCH over F_{ctx.p}^{ctx.k} in class {d}")
    walked = []
    seen = set()
    for x in ffield.enumerate_elements(ctx):
        if x.encoding() in seen:
            continue
        orbit = [x.encoding()]
        y = ffield.frobenius(x)
        while y != x:
            orbit.append(y.encoding())
            y = ffield.frobenius(y)
        seen.update(orbit)
        walked.append(tuple(orbit))
    if sorted(orbit for orbits in classes.values() for orbit in orbits) != walked:
        sys.exit(f"ORBIT MISMATCH over F_{ctx.p}^{ctx.k}")


def main() -> None:
    start = time.perf_counter()
    by_k: dict[int, list] = {}
    for p, k in fields():
        njs, build_s = check(p, k)
        tally = by_k.setdefault(k, [0, 0, (0.0, None)])
        tally[0] += 1
        tally[1] += njs
        tally[2] = max(tally[2], (build_s, p))
    for k, (nfields, njs, (slowest, p)) in sorted(by_k.items()):
        print(f"k = {k}: {nfields} fields, {njs} j, table = counts, orbits = walk; "
              f"slowest table F_{p}^{k} {slowest * 1e3:.1f} ms")
    total = sum(n for n, _, _ in by_k.values())
    print(f"all {total} fields with q <= {FULL_MAX_Q} agree "
          f"({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    sampled = sampled_fields()
    njs, (slowest, field) = 0, (0.0, None)
    for p, k in sampled:
        print(memory(p, k))
        n, build_s = check(p, k, SAMPLE)
        njs += n
        slowest, field = max((slowest, field), (build_s, (p, k)))
    print(f"{len(sampled)} fields F_p^k, k >= 2, with {FULL_MAX_Q} < q <= 2^16: {njs} sampled j "
          f"agree; slowest table F_{field[0]}^{field[1]} {slowest * 1e3:.1f} ms "
          f"({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
