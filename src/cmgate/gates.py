"""Theorem gates: bounded empirical checkers for the CM coincidence
hypothesis on plane curves, the Frobenius-power conclusion, the modular /
multiplicative / cyclotomic support problems, subgroup-form detection, and
the constructive Frobenius-point search.

A gate never proves a theorem; a pass means "no counterexample within the
swept bound, minus the declared exceptional points", and every report
names its bound.  Witnesses are re-verified facts, not search artifacts:
each one is checked again through independent module calls before it is
emitted.
"""

from __future__ import annotations

from math import lcm

from . import classpoly, ecurve, endoring, ffield, ordertools, polyring
from .cli import _elt
from .errors import (
    InternalInvariant, SizeExceeded, SupersingularInput, UnsupportedLevel, _require,
)
from .ffield import FieldCtx, FieldElement, make_field
from .polyring import BiPoly, UniPoly

#: how many ordinary, classifiable points andre_oort_gate samples for geometric isogeny
ISOGENY_SAMPLES = 3
#: the largest degree over F_p of a support witness's root field
WITNESS_DEGREE_MAX = 8
#: the box of the B^(p^m) = A^k scan: 1 <= k <= K_BOUND, 0 <= m <= M_BOUND
K_BOUND = 64
M_BOUND = 8
#: the largest degree over F_p of a field that construct_frobenius_points searches
DEGREE_CAP = 12


class PlaneCurve:
    """An absolutely irreducible affine plane curve f(X, Y) = 0."""

    __slots__ = ("f", "ctx")

    def __init__(self, f: BiPoly, verify: bool = True):
        if f.is_zero():
            raise ValueError("the zero polynomial defines no curve")
        if verify and not polyring.is_absolutely_irreducible(f):
            raise ValueError("curve must be absolutely irreducible")
        self.f = f
        self.ctx = f.ctx

    def is_vertical_line(self) -> bool:
        return self.f.degree_y() <= 0

    def is_horizontal_line(self) -> bool:
        return self.f.degree_x() <= 0

    def __repr__(self):
        return f"PlaneCurve({self.f!r})"


class RingElementPair:
    """A, B in F_q[t], both nonconstant (elements of R \\ F)."""

    __slots__ = ("A", "B")

    def __init__(self, A: UniPoly, B: UniPoly):
        if A.ctx is not B.ctx:
            raise ValueError("A and B must live over the same field")
        if A.is_constant() or B.is_constant():
            raise ValueError("support problems require nonconstant ring elements")
        self.A = A
        self.B = B


class GateReport:
    """Structured verdict of a gate run."""

    __slots__ = (
        "gate", "verdict", "bounds", "counters", "witnesses", "exceptions",
        "conclusion", "notes", "sentinel",
    )

    def __init__(self, gate: str, bounds: dict):
        self.gate = gate
        self.verdict = "pass"
        self.bounds = bounds
        self.counters: dict[str, int] = {}
        self.witnesses: list[dict] = []
        self.exceptions: list[dict] = []
        self.conclusion = None
        self.notes: list[str] = []
        self.sentinel = False

    def bump(self, key: str, by: int = 1):
        self.counters[key] = self.counters.get(key, 0) + by

    def at_limit(self, witness_limit: int | None) -> bool:
        """Whether the witnesses reached witness_limit; the sweep then stops
        with a fail."""
        if witness_limit is None or len(self.witnesses) < witness_limit:
            return False
        self.verdict = "fail"
        self.notes.append("sweep stopped at the witness limit")
        return True

    def as_dict(self) -> dict:
        return {
            "gate": self.gate,
            "verdict": self.verdict,
            "bounds": self.bounds,
            "counters": dict(sorted(self.counters.items())),
            "witnesses": self.witnesses,
            "exceptions": self.exceptions,
            "conclusion": self.conclusion,
            "notes": self.notes,
            "sentinel": self.sentinel,
        }


# ---------------------------------------------------------------------------
# point enumeration
# ---------------------------------------------------------------------------

def enumerate_curve_points(C: PlaneCurve, k: int):
    """All (x, y) on the curve with both coordinates in F_{p^k}."""
    ctx = make_field(C.ctx.p, k * C.ctx.k)
    for enc in range(ctx.q):
        x = ctx.from_encoding(enc)
        fy = C.f.substitute_x(x)
        if fy.is_zero():
            for y_enc in range(ctx.q):
                yield (x, ctx.from_encoding(y_enc))
            continue
        if fy.degree() < 1:
            continue
        for y in polyring.roots_in(fy, ctx.k):
            yield (x, y)


def _new_points_at_level(C: PlaneCurve, k: int):
    """Points over F_{p^k} not already defined over a proper subfield."""
    for x, y in enumerate_curve_points(C, k):
        level = lcm(ffield.element_degree(x), ffield.element_degree(y))
        if level == k * C.ctx.k:
            yield (x, y)


# ---------------------------------------------------------------------------
# CM hypothesis gate (Andre-Oort hypothesis side)
# ---------------------------------------------------------------------------

def check_cm_hypothesis(
    C: PlaneCurve, k_max: int, witness_limit: int | None = None,
) -> GateReport:
    """Sweep curve points and compare the CM orders of their coordinates.

    Verdict: fail on any cm-mismatch witness; points with a supersingular
    coordinate belong to the declared finite exceptional set; points whose
    conductor cannot be classified are reported as skipped and degrade a
    would-be pass to inconclusive.  A line X = c or Y = c through a
    supersingular c lies wholly in that set, which is then not finite: it
    fails with the supersingular-line witness of _supersingular_line_witness.
    """
    report = GateReport(
        "check-cm-hypothesis", {"p": C.ctx.p, "base_k": C.ctx.k, "k_max": k_max}
    )
    recomputed: dict[tuple[int, int, int], int] = {}
    witness = _supersingular_line_witness(C, recomputed)
    if witness is not None:
        report.bump("supersingular_line")
        report.witnesses.append(witness)
        if report.at_limit(witness_limit):
            return report
    for k in range(1, k_max + 1):
        for x, y in _new_points_at_level(C, k):
            report.bump("points")
            sx = ecurve.is_supersingular_j(x)
            sy = ecurve.is_supersingular_j(y)
            if sx or sy:
                report.bump("supersingular_exceptions")
                report.exceptions.append(
                    {"kind": "supersingular", "k": k, "x": _elt(x), "y": _elt(y)}
                )
                continue
            try:
                dx = endoring.endo_discriminant(x)
                dy = endoring.endo_discriminant(y)
            except UnsupportedLevel as exc:
                report.bump("skipped")
                report.exceptions.append(
                    {"kind": "unsupported-conductor", "k": k,
                     "x": _elt(x), "y": _elt(y), "detail": str(exc)}
                )
                continue
            if dx == dy:
                report.bump("ok")
                continue
            report.bump("cm_mismatch")
            # re-verify the witness before emitting it: the point, and each
            # coordinate's order from its own count and walk, not from a store
            _require(polyring.eval_bi(C.f, x, y).is_zero(), "witness: point off the curve")
            _require(_recomputed_disc(x, recomputed) == dx.D, "witness: disc_x differs")
            _require(_recomputed_disc(y, recomputed) == dy.D, "witness: disc_y differs")
            report.witnesses.append(
                {"kind": "cm-mismatch", "k": k, "x": _elt(x), "y": _elt(y),
                 "disc_x": dx.D, "disc_y": dy.D}
            )
            if report.at_limit(witness_limit):
                return report
    if report.witnesses:
        report.verdict = "fail"
    elif report.counters.get("skipped"):
        report.verdict = "inconclusive"
    else:
        report.verdict = "pass"
    return report


def _supersingular_line_witness(C: PlaneCurve, recomputed: dict) -> dict | None:
    """For the line X = c or Y = c with c supersingular, the first level-1
    point whose other coordinate is ordinary and classifiable, as a witness:
    c re-verified by its own count, the other coordinate's order by its own
    count and walk.  None for every other curve."""
    if C.is_vertical_line():
        fixed = 0
    elif C.is_horizontal_line():
        fixed = 1
    else:
        return None
    for point in _new_points_at_level(C, 1):
        if not ecurve.is_supersingular_j(point[fixed]):
            return None
        other = point[1 - fixed]
        if ecurve.is_supersingular_j(other):
            continue
        try:
            disc = endoring.endo_discriminant(other).D
        except UnsupportedLevel:
            continue
        _require(polyring.eval_bi(C.f, *point).is_zero(), "witness: point off the curve")
        _require(_counted_supersingular(point[fixed]), "witness: c is not supersingular")
        _require(_recomputed_disc(other, recomputed) == disc, "witness: the disc differs")
        discs = [None, None]
        discs[1 - fixed] = disc
        return {"kind": "supersingular-line", "k": 1, "x": _elt(point[0]), "y": _elt(point[1]),
                "disc_x": discs[0], "disc_y": discs[1]}
    return None


def _counted_supersingular(j: FieldElement) -> bool:
    """Whether j is supersingular, from its own count rather than the trace store."""
    return ecurve.frobenius_data(ecurve.curve_from_j(ffield.minimal_field(j))).t % j.ctx.p == 0


def _recomputed_disc(x: FieldElement, recomputed: dict) -> int:
    """Provider A's discriminant of x in its minimal field, from its own
    count and volcano walk rather than the trace and disc stores; computed
    once per Frobenius orbit and kept in recomputed."""
    x = ffield.minimal_field(x)
    key = (x.ctx.p, x.ctx.k, ffield.orbit_key(x))
    if key not in recomputed:
        fd = ecurve.frobenius_data(ecurve.curve_from_j(x))
        try:
            recomputed[key] = endoring._provider_a_uncached(x, fd).D
        except (SupersingularInput, UnsupportedLevel) as exc:
            raise InternalInvariant(f"witness: recomputing its order raised {exc!r}") from exc
    return recomputed[key]


def check_frobenius_conclusion(C: PlaneCurve):
    """(direction, n) when the curve is a unit multiple of X - Y^(p^n) or
    Y - X^(p^n); None otherwise.  Pure pattern match on the support."""
    terms = C.f.terms
    if len(terms) != 2:
        return None
    (e1, c1), (e2, c2) = sorted(terms.items(), reverse=True)
    if not (c1 + c2).is_zero():
        return None
    p = C.ctx.p
    if e1 == (1, 0) and e2[0] == 0:  # support {(1,0), (0, p^n)}
        n = _p_power_exponent(e2[1], p)
        if n is not None:
            return ("X=Y^p^n", n)
    if e1[1] == 0 and e2 == (0, 1):  # support {(p^n, 0), (0, 1)}
        n = _p_power_exponent(e1[0], p)
        if n is not None:
            return ("Y=X^p^n", n)
    return None


def _p_power_exponent(e: int, p: int):
    if e < 1:
        return None
    n = 0
    while e % p == 0:
        e //= p
        n += 1
    return n if e == 1 else None


def andre_oort_gate(
    C: PlaneCurve, k_max: int, witness_limit: int | None = None,
) -> GateReport:
    """Hypothesis sweep plus conclusion pattern, with the consistency
    sentinel: a clean full-sweep pass without a Frobenius-monomial
    conclusion is flagged as a falsification candidate."""
    report = check_cm_hypothesis(C, k_max, witness_limit)
    report.gate = "andre-oort-gate"
    conclusion = check_frobenius_conclusion(C)
    if conclusion is not None:
        report.conclusion = {"form": conclusion[0], "n": conclusion[1]}
    if report.verdict == "pass" and conclusion is None:
        report.sentinel = True
        report.notes.append(
            "falsification sentinel: hypothesis passed the full sweep but the "
            "curve is not a Frobenius-monomial"
        )
    if report.counters.get("supersingular_line"):
        return report  # no point of the line has two ordinary coordinates
    # annotate the geometric-isogeny conclusion on the first ISOGENY_SAMPLES
    # ordinary points
    sampled = 0
    for k in range(1, k_max + 1):
        if sampled >= ISOGENY_SAMPLES:
            break
        for x, y in _new_points_at_level(C, k):
            if sampled >= ISOGENY_SAMPLES:
                break
            if ecurve.is_supersingular_j(x) or ecurve.is_supersingular_j(y):
                continue
            report.bump("isogeny_samples")
            if not endoring.geometrically_isogenous(x, y):
                report.bump("isogeny_sample_failures")
            sampled += 1
    return report


# ---------------------------------------------------------------------------
# multiplicative order gate
# ---------------------------------------------------------------------------

def check_mult_hypothesis(
    C: PlaneCurve, k_max: int, mode: str = "divides",
    witness_limit: int | None = None,
) -> GateReport:
    """Sweep curve points comparing multiplicative orders of coordinates.

    mode="divides": ord(y) must divide ord(x); mode="equal": orders equal.
    Points with a zero coordinate are skipped and listed.
    """
    if mode not in ("divides", "equal"):
        raise ValueError("mode must be 'divides' or 'equal'")
    report = GateReport(
        "check-mult-hypothesis",
        {"p": C.ctx.p, "base_k": C.ctx.k, "k_max": k_max, "mode": mode},
    )
    for k in range(1, k_max + 1):
        for x, y in _new_points_at_level(C, k):
            report.bump("points")
            if x.is_zero() or y.is_zero():
                report.bump("zero_coordinate")
                report.exceptions.append(
                    {"kind": "zero-coordinate", "k": k, "x": _elt(x), "y": _elt(y)}
                )
                continue
            ox = ffield.multiplicative_order(x)
            oy = ffield.multiplicative_order(y)
            good = (ox % oy == 0) if mode == "divides" else (ox == oy)
            if good:
                report.bump("ok")
                continue
            _require(polyring.eval_bi(C.f, x, y).is_zero(), "witness: point off the curve")
            report.witnesses.append(
                {"kind": "order-mismatch", "k": k, "x": _elt(x), "y": _elt(y),
                 "order_x": ox, "order_y": oy}
            )
            if report.at_limit(witness_limit):
                return report
    report.verdict = "fail" if report.witnesses else "pass"
    return report


def detect_subgroup_form(C: PlaneCurve):
    """(a, b, zeta) when the curve is a unit multiple of X^a Y^b = zeta
    (negative exponents encode denominators); None otherwise."""
    terms = C.f.terms
    if len(terms) != 2:
        return None
    (e1, c1), (e2, c2) = sorted(terms.items(), reverse=True)
    a = e1[0] - e2[0]
    b = e1[1] - e2[1]
    if (a, b) == (0, 0):
        return None
    zeta = -c2 / c1
    if zeta.is_zero():
        return None
    return (a, b, zeta)


# ---------------------------------------------------------------------------
# support problems over F_q[t]
# ---------------------------------------------------------------------------

def _admissible_split_discriminants(D_set, p: int):
    split, nonsplit = [], []
    for D in D_set:
        classpoly.validate_discriminant(D)
        if D % p == 0 or classpoly.kronecker(D, p) != 1:
            nonsplit.append(D)
        else:
            split.append(D)
    return split, nonsplit


def _supersingular_polynomial(ctx: FieldCtx) -> UniPoly:
    """Monic polynomial over F_p whose roots are the supersingular
    j-invariants, all of which lie in F_{p^2}: the trace classes of F_{p^2}
    with t = 0 mod p."""
    p = ctx.p
    quad = make_field(p, 2)
    supersingular = [enc for (_, t), orbits in ecurve.trace_classes(quad).items()
                     if t % p == 0 for orbit in orbits for enc in orbit]
    return UniPoly.from_ints(make_field(p, 1), ffield.conjugate_product(quad, supersingular))


def _radical_support(report: GateReport, tag: str, P: UniPoly, pair: RingElementPair,
                     witness: dict, verify=None, by: int = 1) -> bool:
    """One case of a support gate: whether rad P(A) divides P(B), counted
    as tag_pass or tag_fail.  A failure records the witness with the degree
    of the first irreducible factor of P(A) that does not divide P(B) and,
    when that factor's root field fits WITNESS_DEGREE_MAX, a root Q, which
    verify(Q) re-checks before it is recorded."""
    P = P.lift_to(pair.A.ctx)
    PA, PB = P.compose(pair.A), P.compose(pair.B)
    if polyring.radical_divides(PA, PB):
        report.bump(f"{tag}_pass", by)
        return True
    report.bump(f"{tag}_fail", by)
    culprit = next((f for f, _ in polyring.factor_univariate(PA) if not f.divides(PB)), None)
    _require(culprit is not None, "failed radical test without a culprit")
    witness["factor_degree"] = culprit.degree()
    d = culprit.degree() * culprit.ctx.k
    try:
        roots = polyring.roots_in(culprit, d) if d <= WITNESS_DEGREE_MAX else []
    except SizeExceeded:
        roots = []
    if roots:
        if verify is not None:
            verify(roots[0])
        witness["Q"] = _elt(roots[0])
    report.witnesses.append(witness)
    return False


def modular_support_check(pair: RingElementPair, D_set) -> GateReport:
    """Theorem-1.2 gate over R = F_q[t]: for each split discriminant the
    hypothesis is radical divisibility of H_D(A) into H_D(B); non-split
    discriminants are covered in aggregate by the supersingular-image
    check (their H_D roots are supersingular), reported separately."""
    A, B = pair.A, pair.B
    ctx = A.ctx
    p = ctx.p
    report = GateReport(
        "modular-support-check",
        {"p": p, "deg_A": A.degree(), "deg_B": B.degree(),
         "D_set": sorted(D_set, reverse=True)},
    )
    split, nonsplit = _admissible_split_discriminants(D_set, p)
    for D in split:
        try:
            H = classpoly.hilbert_mod_p(D, p)
        except (SizeExceeded, UnsupportedLevel) as exc:
            report.bump("skipped_D")
            report.exceptions.append({"kind": "skipped-D", "D": D, "detail": str(exc)})
            continue

        def verify(Q):
            _require(classpoly.hilbert_eval(D, A.evaluate(Q)).is_zero(), "witness: H_D(A(Q)) != 0")
            _require(not classpoly.hilbert_eval(D, B.evaluate(Q)).is_zero(),
                     "witness: H_D(B(Q)) = 0")

        _radical_support(report, "D", H.poly, pair, {"kind": "modular-support", "D": D}, verify)

    def verify_image(Q):
        # from its own count, not the trace store the polynomial was built from
        _require(_counted_supersingular(A.evaluate(Q)), "witness: A(Q) is not supersingular")
        _require(not _counted_supersingular(B.evaluate(Q)), "witness: B(Q) is supersingular")

    if nonsplit and _radical_support(
        report, "nonsplit_rootset", _supersingular_polynomial(ctx), pair,
        {"kind": "supersingular-image", "D": None}, verify_image, by=len(nonsplit),
    ):
        report.notes.append(
            f"{len(nonsplit)} non-split discriminants checked by the "
            "supersingular root-set method"
        )
    conclusion = _frobenius_power_relation(A, B)
    if conclusion is not None:
        direction, n = conclusion
        report.conclusion = {"form": direction, "n": n}
    if report.witnesses:
        report.verdict = "fail"
    elif report.counters.get("skipped_D"):
        report.verdict = "inconclusive"
    else:
        report.verdict = "pass"
    return report


def _frobenius_power_relation(A: UniPoly, B: UniPoly):
    """Match A = B^(p^n) or B = A^(p^n) as polynomials (n = 0 included)."""
    if A == B:
        return ("A=B^p^n", 0)
    for direction, big, small in (("B=A^p^n", B, A), ("A=B^p^n", A, B)):
        n = 0
        power = small
        while power.degree() <= big.degree():
            if power == big and n > 0:
                return (direction, n)
            power = power.pth_power()
            n += 1
    return None


def mult_support_check(pair: RingElementPair, n_max: int, n_floor: int = 0) -> GateReport:
    """Theorem-2.4(1) gate: radical divisibility of A^n - 1 into B^n - 1
    for n_floor < n <= n_max; conclusion matched as B^(p^m) = A^k."""
    A, B = pair.A, pair.B
    ctx = A.ctx
    T, one = UniPoly.x(ctx), UniPoly.one(ctx)
    report = GateReport(
        "mult-support-check",
        {"p": ctx.p, "n_floor": n_floor, "n_max": n_max,
         "k_bound": K_BOUND, "m_bound": M_BOUND},
    )
    for n in range(n_floor + 1, n_max + 1):

        def verify(Q):
            _require(A.evaluate(Q) ** n == Q.ctx.one(), "witness: A(Q)^n != 1")
            _require(B.evaluate(Q) ** n != Q.ctx.one(), "witness: B(Q)^n = 1")

        _radical_support(report, "n", T**n - one, pair, {"kind": "mult-support", "n": n}, verify)
    conclusion = _power_relation_scan(A, B)
    if conclusion is not None:
        report.conclusion = {"k": conclusion[0], "m": conclusion[1]}
    else:
        report.notes.append(
            "no B^(p^m) = A^k relation with k >= 1 in the scanned box; the "
            "k <= -1 possibility lives in the fraction field and is not decided"
        )
    report.verdict = "fail" if report.witnesses else "pass"
    return report


def _power_relation_scan(A: UniPoly, B: UniPoly):
    p = A.ctx.p
    # exact power B = A^e first, reported in the canonical form e = k * p^m
    # with p coprime to k (so (t, t^5) reads as k = 1, m = 1)
    if B.degree() % A.degree() == 0:
        e = B.degree() // A.degree()
        if e >= 1 and A**e == B:
            k, m = e, 0
            while k % p == 0:
                k //= p
                m += 1
            return (k, m)
    # general box scan for B^(p^m) = A^k
    Bp = B
    for m in range(M_BOUND + 1):
        deg = Bp.degree()
        if deg % A.degree() == 0:
            k = deg // A.degree()
            if 1 <= k <= K_BOUND and A**k == Bp:
                return (k, m)
        if Bp.degree() > K_BOUND * A.degree():
            break
        Bp = Bp.pth_power()
    return None


def cyclo_support_check(pair: RingElementPair, n_max: int, n_floor: int = 0) -> GateReport:
    """Theorem-2.4(2) gate: radical divisibility of Psi_n(A) into Psi_n(B)
    for n coprime to p; conclusion matched as B = A^(p^m) or A = B^(p^m)."""
    A, B = pair.A, pair.B
    ctx = A.ctx
    report = GateReport(
        "cyclo-support-check",
        {"p": ctx.p, "n_floor": n_floor, "n_max": n_max, "m_bound": M_BOUND},
    )
    for n in range(n_floor + 1, n_max + 1):
        if n % ctx.p == 0:
            report.bump("n_skipped_char")
            continue

        def verify(Q):
            _require(ffield.multiplicative_order(A.evaluate(Q)) == n, "witness: ord A(Q) != n")

        _radical_support(report, "n", ordertools.cyclotomic_polynomial(n, make_field(ctx.p, 1)),
                         pair, {"kind": "cyclo-support", "n": n}, verify)
    direction = _frobenius_power_relation(A, B)
    if direction is not None:
        report.conclusion = {"form": direction[0], "n": direction[1], "sign": "+"}
    else:
        report.notes.append(
            "minus-direction relations (A * B^(p^m) = 1) are impossible for "
            "nonconstant polynomial inputs; not scanned"
        )
    report.verdict = "fail" if report.witnesses else "pass"
    return report


# ---------------------------------------------------------------------------
# constructive Frobenius points (Prop 5.2 style search)
# ---------------------------------------------------------------------------

class FrobeniusPointWitness:
    __slots__ = ("n", "x", "y", "shared_order", "shared_cm", "cm_status")

    def __init__(self, n, x, y, shared_order, shared_cm, cm_status):
        self.n = n
        self.x = x
        self.y = y
        self.shared_order = shared_order
        self.shared_cm = shared_cm
        self.cm_status = cm_status

    def as_dict(self):
        return {
            "n": self.n,
            "x": _elt(self.x),
            "y": _elt(self.y),
            "shared_order": self.shared_order,
            "shared_cm": None if self.shared_cm is None else self.shared_cm.D,
            "cm_status": self.cm_status,
        }


def construct_frobenius_points(
    C: PlaneCurve, n_max: int, count: int
) -> list[FrobeniusPointWitness]:
    """Find points with x = y^(p^n) on the curve by substituting
    X = Y^(p^n) and collecting roots; each witness records the shared
    multiplicative order and, where classifiable, the shared CM order.

    Exhausting the search without witnesses returns an empty list (the
    normal NoWitnessInBound outcome), never an error.
    """
    if C.is_vertical_line() or C.is_horizontal_line():
        raise ValueError("the construction excludes vertical and horizontal lines")
    ctx = C.ctx
    p = ctx.p
    out: list[FrobeniusPointWitness] = []
    for n in range(1, n_max + 1):
        if len(out) >= count:
            break
        g = _substitute_frobenius_power(C.f, n)
        if g.is_zero():
            # the curve IS X = Y^(p^n): every y in every subfield works
            k = 1
            while len(out) < count and k * ctx.k <= DEGREE_CAP:
                try:
                    field = make_field(p, k * ctx.k)
                except SizeExceeded:
                    break
                for enc in range(1, field.q):
                    y = field.from_encoding(enc)
                    _append_witness(out, n, y)
                    if len(out) >= count:
                        break
                k += 1
            continue
        for factor, _ in polyring.factor_univariate(g):
            if len(out) >= count:
                break
            d = factor.degree() * ctx.k
            if d > DEGREE_CAP:
                continue
            try:
                roots = polyring.roots_in(factor, d)
            except SizeExceeded:
                continue
            for y in roots:
                if y.is_zero():
                    continue
                _append_witness(out, n, y)
                if len(out) >= count:
                    break
    return out


def _substitute_frobenius_power(f: BiPoly, n: int) -> UniPoly:
    """f(Y^(p^n), Y) as a univariate polynomial."""
    ctx = f.ctx
    q_exp = ctx.p**n
    acc: dict[int, FieldElement] = {}
    for (i, j), c in f.terms.items():
        e = i * q_exp + j
        cur = acc.get(e)
        acc[e] = c if cur is None else cur + c
    if not acc:
        return UniPoly.zero(ctx)
    top = max(acc)
    return UniPoly(ctx, [acc.get(e, ctx.zero()) for e in range(top + 1)])


def _append_witness(out: list, n: int, y: FieldElement):
    p = y.ctx.p
    x = y ** (p**n)
    # the three re-checks: the point is on no record here (the caller
    # substituted), so fall back to first principles
    order_y = ffield.multiplicative_order(y)
    order_x = ffield.multiplicative_order(x)
    _require(order_x == order_y, "Frobenius must preserve multiplicative orders")
    shared_cm = None
    status = "shared"
    try:
        dx = endoring.endo_discriminant(x, hilbert_check="auto")
        dy = endoring.endo_discriminant(y, hilbert_check="auto")
        _require(dx == dy, "Frobenius must preserve the CM order")
        shared_cm = dx
    except SupersingularInput:
        status = "supersingular-skip"
    except UnsupportedLevel:
        status = "conductor-unsupported"
    out.append(FrobeniusPointWitness(n, x, y, order_y, shared_cm, status))
