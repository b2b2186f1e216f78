"""cmgate benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload hilbert-cold --seed 1 --seconds 25 --trace 0

Workloads (see README.md):
  hilbert-cold   `cmgate hilbert` for fixed (D, p) pairs, each call in a fresh interpreter
  gate-cold      the theorem gates as CLI calls, each in a fresh interpreter
  bigfield-warm  a seeded stream of library queries, all over fields with q > 2^16,
                 answered by one long-lived process

Load comes from this one process, one operation at a time (a closed loop
with one client).  A run repeats whole rounds of its workload for as close
to --seconds as whole rounds allow (at least one round), checks every
output against `oracles`, and prints one JSON object as its last line.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs one untraced and one
traced pass and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import checks
import layers
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 11
SETUP_PROBES_FIRST = 3
WARM_TRACE_ROUNDS = 8
WARM_RSS_ROUNDS = 10  # the worker's caches grow with the queries it has seen


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child(args: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


class SetupProbes:
    """Fresh interpreters that import cmgate and load its data, and nothing
    else.  A few run before the workload and the rest between its
    operations, at least `gap` seconds apart, so that their median spans
    the same stretch of time as the operations do."""

    def __init__(self, gap: float):
        self.gap = gap
        self.last = 0.0
        self.walls: list[float] = []
        self.inner: list[float] = []

    def take(self) -> None:
        t0 = time.perf_counter()
        proc = _child(["setup"])
        out, err = proc.communicate()
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()}")
        self.inner.append(json.loads(out)["import_s"])
        self.last = time.perf_counter()

    def between(self) -> None:
        if len(self.walls) < SETUP_PROBES and time.perf_counter() - self.last >= self.gap:
            self.take()

    def medians(self) -> tuple[float, float]:
        """(wall of a whole probe, import-plus-load time inside it)."""
        while len(self.walls) < SETUP_PROBES:
            self.take()
        return statistics.median(self.walls), statistics.median(self.inner)


def more_rounds(round_s: list[float], start: float, seconds: float) -> bool:
    """Whether a run starts another round: always a first one, then while
    at least half a round of its --seconds is left.  A run thus measures as
    close to --seconds as whole rounds allow, and a cold run whose one long
    round ended a little early does not take a second one."""
    left = seconds - (time.perf_counter() - start)
    return not round_s or left > round_s[-1] / 2


def _split_trace(err: str) -> dict | None:
    for line in reversed(err.splitlines()):
        if line.startswith(layers.TRACE_MARK):
            return json.loads(line[len(layers.TRACE_MARK):])
    return None


# ---------------------------------------------------------------------------
# cold workloads: one CLI call per fresh interpreter
# ---------------------------------------------------------------------------

# A round of either cold workload takes 28-39 s, so at --seconds 25 every
# untraced run times exactly one round (see more_rounds).  The calls of
# about one second, where the median call falls, run several times a round:
# the median then rests on several calls, not on one or two single timings.
# The 90th percentile (the second slowest call) falls on one of two calls of
# about ten seconds each.

HILBERT_PAIRS = [
    # (D, p): h(D), root field
    (-7, 11),     # 1, F_11
    (-35, 29),    # 2, F_29
    (-23, 59),    # 3, F_59
    *[(-31, 7)] * 3,    # 3, F_{7^3} = 343
    *[(-15, 17)] * 3,   # 2, F_{17^2} = 289
    (-20, 23),    # 2, F_{23^2} = 529
    (-24, 29),    # 2, F_{29^2} = 841
    (-20, 43),    # 2, F_{43^2} = 1849, the largest sweep
    (-40, 103),   # 2, F_{103^2} = 10609, sampled path with BSGS counting
]

GATE_OPS = [
    *[(["ao-gate", "--p", "5", "--curve", "X - Y^5", "--kmax", "3"], checks.check_ao_frobenius)] * 5,
    (["ao-gate", "--p", "5", "--curve", "X + Y - 1", "--kmax", "4"], checks.check_ao_line),
    (["support-modular", "--p", "5", "--A", "t", "--B", "t^5", "--dmax", "100"],
     checks.check_modular_frobenius),
    (["support-modular", "--p", "5", "--A", "t", "--B", "t+1", "--dmax", "60"],
     checks.check_modular_shift),
    (["mult-gate", "--p", "5", "--curve", "X*Y - 1", "--kmax", "4", "--mode", "equal"],
     checks.check_mult_inverse),
    (["support-cyclo", "--p", "5", "--A", "t", "--B", "t^5", "--nmax", "8"],
     checks.check_cyclo_frobenius),
    (["support-mult", "--p", "5", "--A", "t^2", "--B", "t", "--nmax", "8"],
     checks.check_mult_square),
    (["construct-points", "--p", "5", "--curve", "X + Y - 1", "--nmax", "3", "--count", "3"],
     checks.check_construct_line),
]


def hilbert_ops(pairs=HILBERT_PAIRS):
    return [(["hilbert", "--D", str(D), "--p", str(p)],
             lambda report, code, D=D, p=p: checks.check_hilbert(D, p, report, code))
            for D, p in pairs]


def cold_round(ops, trace: bool, record: dict, between) -> None:
    """Run each op in a fresh interpreter; times and checks go to `record`."""
    round_s = 0.0
    for argv, check in ops:
        args = ["cli", *(["--trace"] if trace else []), "--", "--format", "json", *argv]
        t0 = time.perf_counter()
        proc = _child(args)
        out, err = proc.communicate()
        elapsed = time.perf_counter() - t0
        round_s += elapsed
        record["op_s"].append(elapsed)
        try:
            problems = check(json.loads(out), proc.returncode)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output ({exc!r}): {err.strip()[-300:]}"]
        record["attempted"] += 1
        if problems:
            record["failed"] += 1
            record["problems"].append({"op": argv, "problems": problems[:5]})
        if trace:
            raw = _split_trace(err) or {}
            record["ops"].append({"op": argv, "wall_s": elapsed, "layers": raw})
            layers.add(record["layers"], raw)
        between()
    record["round_s"].append(round_s)
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def run_cold(ops, seed: int, seconds: float, trace: bool, between=lambda: None) -> dict:
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    record = new_record()
    if trace:
        # each distinct call once: a repeat adds no new kind of work to the
        # layer sums, and a traced call takes about 2.7 times as long
        ops = list({tuple(argv): (argv, check) for argv, check in ops}.values())
        cold_round(ops, False, record, between)
        traced = new_record()
        cold_round(ops, True, traced, between)
        return merge_traced(record, traced)
    start = time.perf_counter()
    while more_rounds(record["round_s"], start, seconds):
        cold_round(ops, False, record, between)
    return record


# ---------------------------------------------------------------------------
# warm workload: a seeded query stream to one long-lived process
# ---------------------------------------------------------------------------

CM_D = (-7, -8, -11, -19, -43, -67, -163)  # fundamental, h = 1, j not 0 or 1728
CM_P = (70_000, 400_000)
# Every round sends the same shapes of fresh query; the seed picks only the
# curve, or the CM discriminant and prime, within each shape.  An uncached
# query's cost is set by its shape (field size, conductor v, level ell), so
# a fixed mix of shapes keeps the latency distribution, and its median, the
# same from seed to seed.
COUNT_PRIMES = {2: (257, 269, 281, 293),                # p^2 > 2^16
                3: (101, 139, 181, 211, 251, 293)}
# conductors v of Z[pi] are 7-smooth and small: levels 11 and 13 or deeper
# volcanoes cost up to 0.5 s a query and put a long tail on the latencies
CM_SHAPES = {"disc": ((4, None), (6, None), (15, None)),   # (v, ell)
             "volcano": ((8, 2), (9, 3)),
             "neighbors": ((5, 5), (7, 7))}
# per round, after the fresh queries: one repeat of an earlier query of each kind
ROUND_REPEATS = ("disc", "volcano", "count3")
ROUND_FRESH = (sum(len(ps) for ps in COUNT_PRIMES.values())
               + sum(len(shapes) for shapes in CM_SHAPES.values()))


def cm_candidates(vs) -> dict[int, list[tuple[int, int, int, int]]]:
    """For each v in `vs`: (D, v, t, p) with 4p = t^2 + v^2 |D| and p a prime in CM_P."""
    out = {}
    for v in vs:
        out[v] = []
        for D in CM_D:
            t = 1
            while t * t + v * v * -D <= 4 * CM_P[1]:
                n = t * t + v * v * -D
                if n % 4 == 0 and CM_P[0] <= n // 4 and t % (n // 4) and oracles.is_prime(n // 4):
                    out[v].append((D, v, t, n // 4))
                t += 1
    return out


class QueryStream:
    """Rounds of queries fixed by the seed.  Fresh queries never repeat an
    earlier one; the repeats re-send an earlier query of a fixed kind."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cm = cm_candidates(sorted({v for shapes in CM_SHAPES.values() for v, _ in shapes}))
        for pool in self.cm.values():
            self.rng.shuffle(pool)
        self.seen_curves: set = set()
        self.history: dict[str, list[dict]] = {}

    def _count(self, p: int, k: int) -> dict:
        while True:
            a, b = self.rng.randrange(p), self.rng.randrange(p)
            if (4 * a**3 + 27 * b * b) % p and (p, k, a, b) not in self.seen_curves:
                self.seen_curves.add((p, k, a, b))
                return {"op": "count", "p": p, "k": k, "a": a, "b": b}

    def _cm(self, op: str, v: int, ell: int | None) -> dict:
        D, v, _, p = self.cm[v].pop()
        query = {"op": op, "D": D, "v": v, "p": p, "j": -oracles.hilbert_table()[D][0] % p}
        if ell is not None:
            query["ell"] = ell
        return query

    def next_round(self) -> list[dict]:
        fresh = []
        for k, primes in COUNT_PRIMES.items():
            for p in primes:
                query = self._count(p, k)
                self.history.setdefault(f"count{k}", []).append(query)
                fresh.append(query)
        for kind, shapes in CM_SHAPES.items():
            for v, ell in shapes:
                query = self._cm(kind, v, ell)
                self.history.setdefault(kind, []).append(query)
                fresh.append(query)
        self.rng.shuffle(fresh)
        repeats = [self.rng.choice(self.history[kind]) for kind in ROUND_REPEATS]
        return fresh + repeats


def warm_pass(seed: int, rounds: int | None, seconds: float, trace: bool, record: dict,
              between=lambda: None) -> None:
    """Feed rounds to one worker: `rounds` of them, or until `seconds` pass."""
    stream = QueryStream(seed)
    proc = _child(["worker", *(["--trace"] if trace else [])], stdin=subprocess.PIPE)
    answered = []
    try:
        if json.loads(proc.stdout.readline()).get("ready") is not True:
            raise RuntimeError("worker did not start")
        start = time.perf_counter()
        while (len(record["round_s"]) < rounds if rounds is not None
               else more_rounds(record["round_s"], start, seconds)):
            queries = stream.next_round()
            proc.stdin.write(json.dumps(queries) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"worker died: {proc.stderr.read().strip()[-500:]}")
            reply = json.loads(line)
            record["round_s"].append(reply["wall_s"])
            record["op_s"].extend(reply["op_s"])
            answered.extend(zip(queries, reply["results"]))
            if len(record["round_s"]) <= WARM_RSS_ROUNDS:
                record["peak_rss_kb"] = reply["maxrss_kb"]
            between()
    finally:
        _, err = proc.communicate(input="")
    for query, answer in answered:
        problems = checks.check_query(query, answer)
        record["attempted"] += 1
        if problems:
            record["failed"] += 1
            record["problems"].append({"op": query, "problems": problems[:5]})
    if trace:
        raw = _split_trace(err) or {}
        record["ops"].append({"op": "worker", "wall_s": sum(record["round_s"]), "layers": raw})
        layers.add(record["layers"], raw)


def run_warm(seed: int, seconds: float, trace: bool, between=lambda: None) -> dict:
    record = new_record()
    if trace:
        warm_pass(seed, WARM_TRACE_ROUNDS, seconds, False, record, between)
        traced = new_record()
        warm_pass(seed, WARM_TRACE_ROUNDS, seconds, True, traced, between)
        return merge_traced(record, traced)
    warm_pass(seed, None, seconds, False, record, between)
    return record


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def new_record() -> dict:
    return {"attempted": 0, "failed": 0, "problems": [], "op_s": [], "round_s": [],
            "peak_rss_kb": 0, "ops": [], "layers": {}}


def merge_traced(untraced: dict, traced: dict) -> dict:
    for key in ("attempted", "failed"):
        untraced[key] += traced[key]
    untraced["problems"] += traced["problems"]
    untraced["ops"] = traced["ops"]
    untraced["layers"] = traced["layers"]
    untraced["traced_round_s"] = traced["round_s"]
    return untraced


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(record: dict, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(record["round_s"]), "s"),
        "op_p50_ms": (statistics.median(record["op_s"]) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(record["op_s"], 0.9) * 1e3, "ms"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(record: dict, import_s: float) -> dict:
    metrics = layers.derive({**layers.empty(), **record["layers"]})
    untraced, traced = sum(record["round_s"]), sum(record["traced_round_s"])
    metrics["setup.import_s"] = (import_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


WORKLOADS = {
    "hilbert-cold": lambda *args: run_cold(hilbert_ops(), *args),
    "gate-cold": lambda *args: run_cold(GATE_OPS, *args),
    "bigfield-warm": run_warm,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmgate", "cli.py")):
        print(f"cmgate sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    probes = SetupProbes(gap=args.seconds / SETUP_PROBES)
    for _ in range(SETUP_PROBES_FIRST):
        probes.take()
    record = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), probes.between)
    setup_s, import_s = probes.medians()
    metrics = per_layer(record, import_s) if args.trace else end_to_end(record, setup_s)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"args": vars(args), "record": record,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    for item in record["problems"][:10]:
        print("CHECK FAILED:", json.dumps(item), file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
