"""The benchmark's process inside cmgate's interpreter.

    python3 perfbench/child.py setup            import cmgate, load the data
    python3 perfbench/child.py cli [--trace] -- <cmgate argv>
    python3 perfbench/child.py worker [--trace]

`setup` prints {"import_s": ...}.  `cli` behaves like the `cmgate`
command (same stdout and exit code).  `worker` answers rounds of library
queries, one JSON line in and one JSON line out per round (with its peak
resident set so far), until stdin closes.  With --trace, cProfile runs around the cmgate calls only, and the
reduced per-layer sums go to the last stderr line after layers.TRACE_MARK.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import cmgate.cli  # noqa: E402
from cmgate import classpoly, ecurve, endoring, ffield  # noqa: E402

def load_data() -> None:
    """The modular-polynomial data every volcano walk reads."""
    for level in endoring.supported_levels():
        endoring.modular_polynomial(level)


class Tracer:
    """cProfile switched on only around the calls into cmgate.  Its modules
    are imported here so that untraced runs do not pay for them."""

    def __init__(self):
        import cProfile

        self.profile = cProfile.Profile()
        self.sampled_roots = 0
        original = classpoly._collect_roots_sampled

        def counted(*args, **kwargs):
            roots = original(*args, **kwargs)
            self.sampled_roots += len(roots)
            return roots

        classpoly._collect_roots_sampled = counted

    def call(self, fn, *args):
        self.profile.enable()
        try:
            return fn(*args)
        finally:
            self.profile.disable()

    def report(self) -> None:
        import pstats

        import layers

        raw = layers.collect(pstats.Stats(self.profile).stats, self.sampled_roots)
        sys.stderr.write("\n" + layers.TRACE_MARK + json.dumps(raw) + "\n")


def answer(query: dict):
    """One library query; returns a JSON-ready result."""
    op = query["op"]
    if op == "count":
        ctx = ffield.make_field(query["p"], query["k"])
        curve = ecurve.EllipticCurve(ctx.from_int(query["a"]), ctx.from_int(query["b"]))
        return ecurve.count_points(curve)
    j = ffield.make_field(query["p"], 1).from_int(query["j"])
    if op == "disc":
        return endoring.endo_discriminant(j).D
    if op == "volcano":
        return list(endoring.volcano_level(j, query["ell"]))
    if op == "neighbors":
        return [[w.ctx.k, w.encoding(), m] for w, m in endoring.isogenous_neighbors(j, query["ell"])]
    raise ValueError(f"unknown query {op!r}")


def worker(tracer: Tracer | None) -> None:
    call = tracer.call if tracer else (lambda fn, *args: fn(*args))
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        results, times = [], []
        round_start = time.perf_counter()
        for query in json.loads(line):
            t0 = time.perf_counter()
            results.append(call(answer, query))
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - round_start
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"results": results, "op_s": times, "wall_s": wall,
                          "maxrss_kb": maxrss_kb}), flush=True)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        load_data()
        print(json.dumps({"import_s": time.perf_counter() - _T0}))
        return 0
    tracer = None
    if rest[:1] == ["--trace"]:
        tracer, rest = Tracer(), rest[1:]
    if mode == "worker":
        worker(tracer)
        code = 0
    elif mode == "cli":
        cli_argv = rest[1:] if rest[:1] == ["--"] else rest
        code = tracer.call(cmgate.cli.run, cli_argv) if tracer else cmgate.cli.run(cli_argv)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer:
        tracer.report()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
