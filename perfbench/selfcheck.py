"""The benchmark's own tests: the oracles reproduce known values, the checks
reject wrong outputs, and a short run of each workload passes its checks.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps it out of the repository's default test collection,
because the smoke runs start cmgate processes (about ten seconds in all).
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def test_hilbert_minus7_mod_11():
    assert [c % 11 for c in oracles.hilbert_table()[-7]] == [9, 1]  # T + 9


def test_class_numbers():
    assert oracles.class_number(-23) == 3
    assert [oracles.class_number(D) for D in (-3, -4, -7, -15, -20, -31, -71)] == [1, 1, 1, 2, 2, 3, 7]


def test_root_field_degree():
    assert oracles.root_field_degree(-7, 11) == 1
    assert oracles.root_field_degree(-20, 23) == 2
    assert oracles.root_field_degree(-31, 7) == 3
    assert oracles.root_field_degree(-7, 5) is None  # inert


def test_kronecker_matches_euler_criterion():
    for p in (5, 7, 11, 13):
        for a in range(-30, 30):
            euler = pow(a % p, (p - 1) // 2, p)
            assert oracles.kronecker(a, p) == (0 if a % p == 0 else 1 if euler == 1 else -1)


def test_trace_recurrence_on_a_small_curve():
    p, a, b = 7, 1, 3
    F = oracles.Field(p, 2)
    count = 1
    for enc in range(F.q):
        x = F.decode(enc)
        rhs = F.add(F.add(F.pow(x, 3), F.mul(F.const(a), x)), F.const(b))
        count += 1 if not rhs else 2 if F.pow(rhs, (F.q - 1) // 2) == [1] else 0
    t2 = oracles.trace_over_extension(oracles.trace_over_prime(a, b, p), p, 2)
    assert count == F.q + 1 - t2


def test_field_modulus_convention():
    assert oracles.field_modulus(5, 2) == (2, 0, 1)  # T^2 + 2, the least irreducible


def test_checks_reject_wrong_outputs():
    good = {"result": {"coeffs": [9, 1], "degree": 1, "root_field_degree": 1,
                       "roots": [{"deg": 1, "enc": 2}]}}
    assert checks.check_hilbert(-7, 11, good, 0) == []
    bad = copy.deepcopy(good)
    bad["result"]["roots"][0]["enc"] = 3
    assert checks.check_hilbert(-7, 11, bad, 0)
    assert checks.check_hilbert(-7, 11, good, 2)
    query = {"op": "count", "p": 263, "k": 2, "a": 1, "b": 5}
    t = oracles.trace_over_extension(oracles.trace_over_prime(1, 5, 263), 263, 2)
    assert checks.check_query(query, 263**2 + 1 - t) == []
    assert checks.check_query(query, 263**2 + 2 - t)


def _smoke(record):
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]


def test_smoke_hilbert_cold():
    _smoke(run.run_cold(run.hilbert_ops([(-7, 11), (-31, 7)]), seed=1, seconds=0, trace=False))


def test_smoke_gate_cold():
    fast = [op for op in run.GATE_OPS if op[0][0] in
            ("support-cyclo", "support-mult", "construct-points")] + run.GATE_OPS[:1]
    _smoke(run.run_cold(fast, seed=1, seconds=0, trace=False))


def test_smoke_bigfield_warm():
    record = run.new_record()
    run.warm_pass(seed=1, rounds=2, seconds=0, trace=False, record=record)
    _smoke(record)
    assert record["attempted"] == 2 * (run.ROUND_FRESH + len(run.ROUND_REPEATS))


def _declared(kind: str) -> set[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_smoke_traced_layers():
    record = run.run_cold(run.hilbert_ops([(-15, 17)]), seed=1, seconds=0, trace=True)
    _smoke(record)
    assert set(run.end_to_end(record, setup_s=0.1)) == _declared("end_to_end")
    metrics = run.per_layer(record, import_s=0.1)
    assert set(metrics) == _declared("per_layer")
    assert metrics["classpoly.hilbert"][0] == 1
    assert metrics["endoring.disc_maps"][0] == 1
    assert metrics["ffield.self_s"][0] > 0
