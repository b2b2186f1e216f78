"""The acceptance suite: one callable per criterion, shared by the pytest
module and the `cmgate selftest` subcommand.

Each criterion is exact (no tolerances): the checks are equalities of
integers, polynomials, and verdicts at their stated desk-scale bounds.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

from . import _cache, classpoly, cli, ecurve, endoring, ffield, gates, ordertools, polyring
from .errors import SupersingularInput, UnsupportedLevel
from .ffield import make_field
from .polyring import BiPoly, UniPoly
from ._numutil import crc_rng, is_prime


class CriterionResult:
    __slots__ = ("number", "name", "passed", "details")

    def __init__(self, number: int, name: str, passed: bool, details: str):
        self.number = number
        self.name = name
        self.passed = passed
        self.details = details

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number:2d} ({self.name}): {self.details}"

    def as_dict(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _result(number, name, passed, details) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), details)


# --- 1: Frobenius CM invariance ---------------------------------------------

def criterion_1() -> CriterionResult:
    checked = 0
    skipped = 0
    for p in (5, 7, 11, 13):
        ctx = make_field(p, 2)
        for j in ffield.enumerate_elements(ctx):
            try:
                d1 = endoring.endo_discriminant(j)
            except SupersingularInput:
                continue
            except UnsupportedLevel:
                skipped += 1
                continue
            # the conjugate's own count and volcano walk: the stores keyed by
            # Frobenius orbit would hand d1 back
            jc = ffield.minimal_field(ffield.frobenius(j))
            try:
                d2 = endoring._provider_a_uncached(
                    jc, ecurve.frobenius_data(ecurve.curve_from_j(jc)))
            except (SupersingularInput, UnsupportedLevel) as exc:
                return _result(
                    1, "frobenius-cm-invariance", False,
                    f"j enc {j.encoding()} over F_{p}^2: {d1.D}, conjugate {exc!r}",
                )
            if d1 != d2:
                return _result(
                    1, "frobenius-cm-invariance", False,
                    f"j enc {j.encoding()} over F_{p}^2: {d1.D} != {d2.D}",
                )
            checked += 1
    return _result(
        1, "frobenius-cm-invariance", True,
        f"{checked} ordinary j-invariants invariant under x -> x^p "
        f"({skipped} conductor-unsupported skipped)",
    )


# --- 2: dual-provider agreement ----------------------------------------------

def criterion_2() -> CriterionResult:
    checked = 0
    for p in (5, 7, 11, 13, 17):
        ctx = make_field(p, 2)
        for j in ffield.enumerate_elements(ctx):
            jm = ffield.minimal_field(j)
            try:
                order = endoring.provider_a_disc(jm)
            except (SupersingularInput, UnsupportedLevel):
                continue
            value = classpoly.hilbert_eval(order.D, jm)
            if not value.is_zero():
                return _result(
                    2, "dual-provider-agreement", False,
                    f"H_{order.D}(j) != 0 for j enc {j.encoding()} over F_{p}^2",
                )
            H = classpoly.hilbert_mod_p(order.D, p)
            if H.poly.degree() != classpoly.class_number(order.D):
                return _result(2, "dual-provider-agreement", False,
                               f"degree law broken for D={order.D}, p={p}")
            checked += 1
    return _result(
        2, "dual-provider-agreement", True,
        f"volcano and Hilbert-root providers agree on {checked} ordinary points",
    )


# --- 3: Hilbert degree law -----------------------------------------------------

def _admissible_primes(D: int, count: int):
    out = []
    p = 5
    while len(out) < count and p < 5000:
        if (
            is_prime(p)
            and D % p != 0
            and classpoly.kronecker(D, p) == 1
            and classpoly.class_order_of_p(D, p, max_q=classpoly.AUTO_CHECK_MAX_Q)
            is not None
        ):
            out.append(p)
        p += 2
    return out


def criterion_3() -> CriterionResult:
    pairs = 0
    for d_abs in range(3, 201):
        D = -d_abs
        if D % 4 not in (0, 1):
            continue
        primes = _admissible_primes(D, 3)
        if len(primes) < 3:
            return _result(3, "hilbert-degree-law", False,
                           f"fewer than 3 admissible primes for D={D}")
        for p in primes:
            H = classpoly.hilbert_mod_p(D, p)
            h = classpoly.class_number(D)
            if H.poly.degree() != h:
                return _result(3, "hilbert-degree-law", False,
                               f"deg H_{D} mod {p} = {H.poly.degree()} != {h}")
            if H.poly.ctx.k != 1:
                return _result(3, "hilbert-degree-law", False,
                               f"H_{D} mod {p} has non-prime-field coefficients")
            if H.poly.gcd(H.poly.derivative()).degree() != 0:
                return _result(3, "hilbert-degree-law", False,
                               f"H_{D} mod {p} is not squarefree")
            pairs += 1
    return _result(3, "hilbert-degree-law", True,
                   f"degree/coefficient/squarefree law holds for {pairs} (D, p) pairs")


# --- 4: inert obstruction -------------------------------------------------------

def _feasible_triples(want: int, split_ell: bool):
    triples = []
    for ell in (2, 3, 5, 7):
        for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if len(triples) >= want:
                return triples
            if p == ell:
                continue
            d_min = 1
            for _ in range(4):
                try:
                    D = classpoly.find_test_discriminant(
                        ell, p, d_min, ell_symbol=1 if split_ell else -1
                    )
                except Exception:
                    break
                d_min = -D
                if D % p == 0 or p % ell == 0:
                    continue
                if classpoly.class_order_of_p(D, p, max_q=classpoly.AUTO_CHECK_MAX_Q) is None:
                    continue
                triples.append((D, ell, p))
                break
    return triples


def criterion_4() -> CriterionResult:
    triples = _feasible_triples(20, split_ell=False)
    if len(triples) < 20:
        return _result(4, "inert-obstruction", False,
                       f"only {len(triples)} feasible inert triples")
    for D, ell, p in triples:
        if not classpoly.inert_obstruction_check(D, ell, p):
            return _result(4, "inert-obstruction", False,
                           f"Phi_{ell} edge found among H_{D} mod {p} roots")
    controls = _feasible_triples(5, split_ell=True)
    if len(controls) < 5:
        return _result(4, "inert-obstruction", False,
                       f"only {len(controls)} split controls")
    for D, ell, p in controls:
        if classpoly.inert_obstruction_check(D, ell, p):
            return _result(4, "inert-obstruction", False,
                           f"sharpness control unexpectedly clean: ({D}, {ell}, {p})")
    return _result(4, "inert-obstruction", True,
                   "20 inert triples clean, 5 split controls show edges")


# --- 5: Andre-Oort gate, positive direction ------------------------------------

def criterion_5() -> CriterionResult:
    F5 = make_field(5, 1)
    # the number of supersingular j, the roots of their polynomial
    ss_count_bound = gates._supersingular_polynomial(F5).degree()
    for n in (0, 1, 2):
        curve = gates.PlaneCurve(BiPoly(F5, {(1, 0): 1, (0, 5**n): -1}))
        report = gates.check_cm_hypothesis(curve, 3)
        if report.witnesses:
            return _result(5, "andre-oort-positive", False,
                           f"cm-mismatch on X - Y^(5^{n}): {report.witnesses[0]}")
        if report.verdict != "pass":
            return _result(5, "andre-oort-positive", False,
                           f"verdict {report.verdict} on X - Y^(5^{n})")
        exceptions = report.counters.get("supersingular_exceptions", 0)
        if exceptions > 3 * ss_count_bound:
            return _result(5, "andre-oort-positive", False,
                           f"{exceptions} supersingular exceptions exceed the bound")
    return _result(5, "andre-oort-positive", True,
                   "X - Y^(5^n) passes at k_max = 3 for n = 0, 1, 2")


# --- 6: Andre-Oort gate, contrapositive -----------------------------------------

def _random_test_curves(count: int):
    F5 = make_field(5, 1)
    rng = crc_rng("acceptance-c6")
    monomials = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    out = []
    guard = 0
    while len(out) < count and guard < 4000:
        guard += 1
        terms = {}
        for key in monomials:
            c = rng.randrange(5)
            if c:
                terms[key] = c
        f = BiPoly(F5, terms)
        if f.is_zero() or f.total_degree() < 1:
            continue
        try:
            if not polyring.is_absolutely_irreducible(f):
                continue
        except Exception:
            continue
        curve = gates.PlaneCurve(f, verify=False)
        if gates.check_frobenius_conclusion(curve) is not None:
            continue
        out.append(curve)
    return out


def criterion_6() -> CriterionResult:
    curves = _random_test_curves(10)
    if len(curves) < 10:
        return _result(6, "andre-oort-contrapositive", False,
                       "could not generate 10 admissible curves")
    for idx, curve in enumerate(curves):
        report = gates.andre_oort_gate(curve, 6, witness_limit=1)
        if report.witnesses:
            continue
        if report.sentinel:
            return _result(
                6, "andre-oort-contrapositive", False,
                f"falsification sentinel on curve {idx}: hypothesis passed "
                f"without a Frobenius-monomial conclusion",
            )
        if report.verdict != "inconclusive":
            return _result(6, "andre-oort-contrapositive", False,
                           f"curve {idx}: no witness and verdict {report.verdict}")
    return _result(6, "andre-oort-contrapositive", True,
                   "all 10 random curves yield cm-mismatch witnesses (k <= 6)")


# --- 7: point counting oracle ----------------------------------------------------

def criterion_7() -> CriterionResult:
    total = 0
    for q in (101, 1009, 10007):
        ctx = make_field(q, 1)
        rng = crc_rng("acceptance-c7", q)
        done = 0
        while done < 50:
            a = ctx.from_encoding(rng.randrange(q))
            b = ctx.from_encoding(rng.randrange(q))
            try:
                E = ecurve.EllipticCurve(a, b)
            except ValueError:
                continue
            naive = ecurve._naive_count(E)
            bsgs = ecurve._bsgs_count(E)
            if naive != bsgs:
                return _result(
                    7, "bsgs-oracle", False,
                    f"q={q}, a={a.encoding()}, b={b.encoding()}: {naive} != {bsgs}",
                )
            done += 1
            total += 1
    return _result(7, "bsgs-oracle", True,
                   f"BSGS equals the naive count on {total} curves")


# --- 8: modular support gate ------------------------------------------------------

def criterion_8() -> CriterionResult:
    F5 = make_field(5, 1)
    t = UniPoly.x(F5)
    t5 = UniPoly(F5, [F5.zero()] * 5 + [F5.one()])
    t_plus_1 = UniPoly.from_ints(F5, [1, 1])
    d_set = [D for D in range(-3, -101, -1) if D % 4 in (0, 1)]

    rep = gates.modular_support_check(gates.RingElementPair(t, t5), d_set)
    if rep.witnesses or rep.counters.get("D_fail") or rep.counters.get("nonsplit_rootset_fail"):
        return _result(8, "modular-support", False, "(t, t^5) produced witnesses")
    if rep.conclusion != {"form": "B=A^p^n", "n": 1}:
        return _result(8, "modular-support", False,
                       f"(t, t^5) conclusion {rep.conclusion}")

    rep2 = gates.modular_support_check(gates.RingElementPair(t, t_plus_1), d_set)
    if rep2.verdict != "fail":
        return _result(8, "modular-support", False, "(t, t+1) did not fail")
    explicit = [w for w in rep2.witnesses if w.get("Q") is not None and w.get("D")]
    if not explicit:
        return _result(8, "modular-support", False,
                       "(t, t+1) failed without an explicit (D, Q) witness")

    rep3 = gates.modular_support_check(gates.RingElementPair(t, t), d_set)
    if rep3.verdict == "fail" or rep3.conclusion != {"form": "A=B^p^n", "n": 0}:
        return _result(8, "modular-support", False, f"(t, t) gave {rep3.conclusion}")
    return _result(
        8, "modular-support", True,
        f"(t, t^5) clean, (t, t+1) fails with witness D={explicit[0]['D']}, "
        f"(t, t) matches n = 0",
    )


# --- 9: multiplicative / cyclotomic gates ------------------------------------------

def criterion_9() -> CriterionResult:
    F5 = make_field(5, 1)
    t = UniPoly.x(F5)
    t2 = UniPoly(F5, [F5.zero(), F5.zero(), F5.one()])
    t5 = UniPoly(F5, [F5.zero()] * 5 + [F5.one()])

    rep = gates.mult_support_check(gates.RingElementPair(t, t2), 8)
    if rep.verdict != "pass" or rep.conclusion != {"k": 2, "m": 0}:
        return _result(9, "mult-cyclo-gates", False,
                       f"(t, t^2) mult gate: {rep.verdict}, {rep.conclusion}")

    rep2 = gates.mult_support_check(gates.RingElementPair(t2, t), 8)
    if rep2.verdict != "fail" or not any(w["n"] <= 8 for w in rep2.witnesses):
        return _result(9, "mult-cyclo-gates", False, "(t^2, t) did not fail by n = 8")

    rep3 = gates.cyclo_support_check(gates.RingElementPair(t, t5), 8)
    if rep3.verdict != "pass" or rep3.conclusion != {
        "form": "B=A^p^n", "n": 1, "sign": "+",
    }:
        return _result(9, "mult-cyclo-gates", False,
                       f"(t, t^5) cyclo gate: {rep3.verdict}, {rep3.conclusion}")
    return _result(9, "mult-cyclo-gates", True,
                   "mult (t,t^2) k=2 m=0; (t^2,t) fails; cyclo (t,t^5) B=A^p")


# --- 10: Frobenius point constructor -------------------------------------------------

def criterion_10() -> CriterionResult:
    F5 = make_field(5, 1)
    curves = {
        "X+Y-1": {(1, 0): 1, (0, 1): 1, (0, 0): -1},
        "XY-1": {(1, 1): 1, (0, 0): -1},
        "X^2+Y-2": {(2, 0): 1, (0, 1): 1, (0, 0): -2},
    }
    for name, terms in curves.items():
        witnesses = gates.construct_frobenius_points(
            gates.PlaneCurve(BiPoly(F5, terms)), 3, 3
        )
        if not witnesses:
            return _result(10, "frobenius-points", False, f"no witness on {name}")
        for w in witnesses:
            # re-check through independent module calls
            if w.x != w.y ** (5**w.n):
                return _result(10, "frobenius-points", False,
                               f"{name}: x != y^(p^n)")
            if ffield.multiplicative_order(w.x) != ffield.multiplicative_order(w.y):
                return _result(10, "frobenius-points", False,
                               f"{name}: orders differ")
            if not polyring.eval_bi(BiPoly(F5, terms), w.x, w.y).is_zero():
                return _result(10, "frobenius-points", False,
                               f"{name}: witness off the curve")
            if w.cm_status == "shared":
                if endoring.endo_discriminant(w.x) != endoring.endo_discriminant(w.y):
                    return _result(10, "frobenius-points", False,
                                   f"{name}: CM discs differ")
            elif w.cm_status not in ("supersingular-skip", "conductor-unsupported"):
                return _result(10, "frobenius-points", False,
                               f"{name}: unknown cm status {w.cm_status}")
    return _result(10, "frobenius-points", True,
                   "all three curves emit fully re-checked witnesses")


# --- 11: Galois structure --------------------------------------------------------------

def criterion_11() -> CriterionResult:
    report = ordertools.stabilization_threshold(3, 5, 6)
    if report.degrees != [2, 6, 18, 54, 162, 486]:
        return _result(11, "galois-structure", False, f"degrees {report.degrees}")
    if report.threshold != 1:
        return _result(11, "galois-structure", False, f"threshold {report.threshold}")
    # independent confirmation: mu_{3^m} lives in F_{5^k} iff 3^m | 5^k - 1
    for m in range(1, 7):
        expected = report.degrees[m - 1]
        k = 1
        while (5**k - 1) % 3**m:
            k += 1
        if k != expected:
            return _result(11, "galois-structure", False,
                           f"big-int scan gives degree {k} at m={m}")
    # in-field confirmation where the context fits the size bound
    for m, k in ((1, 2), (2, 6)):
        ctx = make_field(5, k)
        zeta = ffield.distinguished_generator(ctx) ** ((ctx.q - 1) // 3**m)
        if ffield.multiplicative_order(zeta) != 3**m:
            return _result(11, "galois-structure", False,
                           f"no order-3^{m} element found in F_5^{k}")
    return _result(11, "galois-structure", True,
                   "degrees (2,6,18,54,162,486), threshold 1, confirmed")


# --- 12: determinism ----------------------------------------------------------------

def _capture_cli(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return json.dumps({"code": code, "stdout": buf.getvalue()}).encode()


def _capture_process(argv, hashseed: str) -> bytes:
    """The same capture from a fresh interpreter under the given hash seed."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-m", "cmgate.cli", *argv],
                          capture_output=True, env=env)
    return json.dumps({"code": proc.returncode, "stdout": proc.stdout.decode()}).encode()


def criterion_12() -> CriterionResult:
    commands = [
        ["--format", "json", "ao-gate", "--p", "5", "--curve", "X - Y^5", "--kmax", "2"],
        ["--format", "json", "support-mult", "--p", "5", "--A", "t", "--B", "t^2",
         "--nmax", "6"],
        ["--format", "json", "hilbert", "--D", "-15", "--p", "61"],
        ["--format", "json", "construct-points", "--p", "5", "--curve", "X*Y - 1",
         "--nmax", "2", "--count", "2"],
    ]
    for argv in commands:
        first = _capture_cli(argv)
        # the rerun starts from empty caches, so it recomputes, not replays
        _cache.clear_caches()
        if _capture_cli(argv) != first:
            return _result(12, "determinism", False,
                           f"output differs across runs: {argv}")
        # fresh interpreters under two hash seeds rule out hash-order leaks
        # that one process, whose seed is fixed, would reproduce every time
        for hashseed in ("1", "99"):
            if _capture_process(argv, hashseed) != first:
                return _result(12, "determinism", False,
                               f"output differs in a fresh process "
                               f"(PYTHONHASHSEED={hashseed}): {argv}")
    return _result(12, "determinism", True,
                   "in-process reruns and fresh processes under two hash seeds "
                   "are byte-identical for all probed commands")


REGISTRY = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}


def run_all(numbers=None) -> list[CriterionResult]:
    chosen = sorted(REGISTRY) if numbers is None else sorted(numbers)
    return [REGISTRY[number]() for number in chosen]
