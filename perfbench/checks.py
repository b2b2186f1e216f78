"""Per-operation checks of cmgate's outputs against `oracles`.

Each check takes the parsed JSON report and the exit code of one command
(or the answer to one library query) and returns a list of problems; an
empty list means the output is right.  What is checked, and why the
theorem forces it, is written beside each check.
"""

from __future__ import annotations

from oracles import (
    Field,
    class_number,
    element_degree,
    exact_degree_count,
    hilbert_table,
    kronecker,
    phi_value,
    root_field_degree,
    trace_over_extension,
    trace_over_prime,
    valuation,
)

SAMPLING_MAX_Q = 1 << 16  # cmgate's documented reach for class-polynomial roots


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# hilbert
# ---------------------------------------------------------------------------

def check_hilbert(D: int, p: int, report: dict, code: int) -> list[str]:
    """H_D mod p equals the integer table reduced mod p; its degree is h(D)
    by a reduced-form scan; its roots live in F_{p^m} for the least m with
    4p^m = t^2 + w^2|D|, and each is a root there."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    if code != 0:
        return problems
    res = report["result"]
    want = [c % p for c in hilbert_table()[D]]
    _expect(problems, "coefficients", res["coeffs"], want)
    h = class_number(D)
    _expect(problems, "degree", res["degree"], h)
    m = root_field_degree(D, p)
    _expect(problems, "root field degree", res["root_field_degree"], m)
    roots = res["roots"]
    _expect(problems, "root count", len(roots), h)
    if m is None or problems:
        return problems
    F = Field(p, m)
    for root in roots:
        if root["deg"] != m:
            problems.append(f"root {root} not in F_{p}^{m}")
        elif F.poly_eval(want, F.decode(root["enc"])):
            problems.append(f"root {root} is not a root of H_{D} mod {p}")
    _expect(problems, "distinct roots", len({r["enc"] for r in roots}), len(roots))
    return problems


# ---------------------------------------------------------------------------
# gates over F_5 (every gate command of the workload uses p = 5)
# ---------------------------------------------------------------------------

P = 5
SUPERSINGULAR_J = 0  # the only supersingular j in characteristic 5 (5 = 2 mod 3)


def _points_below(kmax: int, excluded: int = 0) -> int:
    """Curve points with y of exact degree k <= kmax, when y fixes x in its
    own field (X = Y^5, X = 1 - Y, X = 1/Y); `excluded` y have no x."""
    return sum(exact_degree_count(P, k) for k in range(1, kmax + 1)) - excluded


def _on_line(x: dict, y: dict) -> bool:
    """x + y = 1, both in F_{5^deg}."""
    if x["deg"] != y["deg"]:
        return False
    F = Field(P, x["deg"])
    return F.add(F.decode(x["enc"]), F.decode(y["enc"])) == [1]


def _hilbert_root(D: int, z: dict) -> bool | None:
    """Whether z is a root of H_D mod 5; None when H_D is not tabled."""
    coeffs = hilbert_table().get(D)
    if coeffs is None:
        return None
    F = Field(P, z["deg"])
    return not F.poly_eval(coeffs, F.decode(z["enc"]))


def _split_discriminants(dmax: int) -> tuple[list[int], list[int]]:
    split, nonsplit = [], []
    for D in range(-3, -dmax - 1, -1):
        if D % 4 in (0, 1):
            (split if D % P and kronecker(D, P) == 1 else nonsplit).append(D)
    return split, nonsplit


def check_ao_frobenius(report: dict, code: int) -> list[str]:
    """ao-gate on X - Y^5, kmax 3: the Frobenius graph passes with the
    conclusion X = Y^p^n, n = 1; its only supersingular point is (0, 0)."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    _expect(problems, "verdict", report["verdict"], "pass")
    _expect(problems, "witnesses", report["witnesses"], [])
    res = report["result"]
    _expect(problems, "conclusion", res["conclusion"], {"form": "X=Y^p^n", "n": 1})
    _expect(problems, "sentinel", res["sentinel"], False)
    work = report["timings"]["work"]
    _expect(problems, "points", work.get("points"), _points_below(3))
    _expect(problems, "supersingular points", work.get("supersingular_exceptions"), 1)
    _expect(problems, "ok points", work.get("ok"), _points_below(3) - 1)
    return problems


def check_ao_line(report: dict, code: int) -> list[str]:
    """ao-gate on X + Y - 1, kmax 4: not a Frobenius graph, so the gate
    fails with cm-mismatch witnesses; each lies on the line at its level,
    its two discriminants differ, and tabled ones are H_D roots."""
    problems: list[str] = []
    kmax = 4
    _expect(problems, "exit code", code, 1)
    _expect(problems, "verdict", report["verdict"], "fail")
    res = report["result"]
    _expect(problems, "conclusion", res["conclusion"], None)
    work = report["timings"]["work"]
    points = _points_below(kmax)
    _expect(problems, "points", work.get("points"), points)
    _expect(problems, "supersingular points", work.get("supersingular_exceptions"), 2)
    mismatches = work.get("cm_mismatch", 0)
    _expect(problems, "ok + mismatch + supersingular", work.get("ok", 0) + mismatches + 2, points)
    witnesses = report["witnesses"]
    _expect(problems, "witness count", len(witnesses), mismatches)
    if not witnesses:
        problems.append("no cm-mismatch witness")
    for w in witnesses:
        x, y, k = w["x"], w["y"], w["k"]
        if not (1 <= k <= kmax and x["deg"] == k and _on_line(x, y)):
            problems.append(f"witness {w} is not a level-{k} point of X + Y - 1")
        elif element_degree(P, k, y["enc"]) != k:
            problems.append(f"witness {w} is defined over a smaller field")
        elif w["disc_x"] == w["disc_y"]:
            problems.append(f"witness {w} has equal discriminants")
        elif False in (_hilbert_root(w["disc_x"], x), _hilbert_root(w["disc_y"], y)):
            problems.append(f"witness {w}: a coordinate is not a root of its H_D")
    return problems


def check_modular_frobenius(report: dict, code: int) -> list[str]:
    """support-modular (t, t^5), dmax 100: H_D(t^5) = H_D(t)^5, so every
    split D passes except those whose root field exceeds 2^16, which are
    skipped; the conclusion is B = A^p^n with n = 1."""
    problems: list[str] = []
    split, nonsplit = _split_discriminants(100)
    skipped = [D for D in split if P ** root_field_degree(D, P) > SAMPLING_MAX_Q]
    _expect(problems, "exit code", code, 0)
    _expect(problems, "verdict", report["verdict"], "inconclusive" if skipped else "pass")
    _expect(problems, "witnesses", report["witnesses"], [])
    _expect(problems, "conclusion", report["result"]["conclusion"], {"form": "B=A^p^n", "n": 1})
    _expect(problems, "skipped D", [e["D"] for e in report["exceptions"]], skipped)
    work = report["timings"]["work"]
    _expect(problems, "D_pass", work.get("D_pass"), len(split) - len(skipped))
    _expect(problems, "nonsplit", work.get("nonsplit_rootset_pass"), len(nonsplit))
    return problems


def check_modular_shift(report: dict, code: int) -> list[str]:
    """support-modular (t, t+1), dmax 60: a root set of H_D mod 5 closed
    under x -> x + 1 has a size divisible by 5, so every split D with
    5 not dividing h(D) fails; the supersingular image fails at Q = 0."""
    problems: list[str] = []
    split, nonsplit = _split_discriminants(60)
    _expect(problems, "exit code", code, 1)
    _expect(problems, "verdict", report["verdict"], "fail")
    _expect(problems, "conclusion", report["result"]["conclusion"], None)
    work = report["timings"]["work"]
    _expect(problems, "split total",
            work.get("D_pass", 0) + work.get("D_fail", 0) + work.get("skipped_D", 0), len(split))
    _expect(problems, "nonsplit", work.get("nonsplit_rootset_fail"), len(nonsplit))
    modular = [w for w in report["witnesses"] if w["kind"] == "modular-support"]
    forced = [D for D in split if class_number(D) % P]
    failed = [w["D"] for w in modular]
    if not set(forced) <= set(failed):
        problems.append(f"split D {sorted(set(forced) - set(failed))} should fail")
    _expect(problems, "D_fail", work.get("D_fail"), len(modular))
    for w in modular:
        q = w.get("Q")
        if q is None:
            continue
        F = Field(P, q["deg"])
        shifted = {"deg": q["deg"], "enc": F.encode(F.add(F.decode(q["enc"]), [1]))}
        if False in (_hilbert_root(w["D"], q), not _hilbert_root(w["D"], shifted)):
            problems.append(f"witness {w}: Q is not a root of H_D(t) outside H_D(t+1)")
    image = [w for w in report["witnesses"] if w["kind"] == "supersingular-image"]
    _expect(problems, "supersingular-image witnesses",
            [w.get("Q") for w in image], [{"deg": 1, "enc": SUPERSINGULAR_J}] if nonsplit else [])
    return problems


def check_mult_inverse(report: dict, code: int) -> list[str]:
    """mult-gate on X*Y - 1, kmax 4, mode equal: 1/y has the order of y, so
    every point passes; y = 0 is the one y with no x."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    _expect(problems, "verdict", report["verdict"], "pass")
    _expect(problems, "witnesses", report["witnesses"], [])
    work = report["timings"]["work"]
    _expect(problems, "points", work.get("points"), _points_below(4, excluded=1))
    _expect(problems, "ok points", work.get("ok"), _points_below(4, excluded=1))
    return problems


def check_cyclo_frobenius(report: dict, code: int) -> list[str]:
    """support-cyclo (t, t^5), nmax 8: Psi_n(t^5) vanishes at every
    primitive n-th root when 5 does not divide n; n = 5 is skipped."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    _expect(problems, "verdict", report["verdict"], "pass")
    _expect(problems, "conclusion", report["result"]["conclusion"],
            {"form": "B=A^p^n", "n": 1, "sign": "+"})
    work = report["timings"]["work"]
    _expect(problems, "n_pass", work.get("n_pass"), sum(1 for n in range(1, 9) if n % P))
    _expect(problems, "n_skipped_char", work.get("n_skipped_char"), 1)
    return problems


def check_mult_square(report: dict, code: int) -> list[str]:
    """support-mult (t^2, t), nmax 8: t^(2n) - 1 has a root of order 2n'
    (n' the prime-to-5 part of n) that t^n - 1 lacks, so every n fails."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 1)
    _expect(problems, "verdict", report["verdict"], "fail")
    _expect(problems, "conclusion", report["result"]["conclusion"], None)
    _expect(problems, "failing n", [w["n"] for w in report["witnesses"]], list(range(1, 9)))
    for w in report["witnesses"]:
        q = w.get("Q")
        if q is None:
            continue
        F = Field(P, q["deg"])
        z = F.decode(q["enc"])
        if F.pow(z, 2 * w["n"]) != [1] or F.pow(z, w["n"]) == [1]:
            problems.append(f"witness {w}: Q^(2n) = 1 and Q^n != 1 do not both hold")
    return problems


def check_construct_line(report: dict, code: int) -> list[str]:
    """construct-points on X + Y - 1, nmax 3, count 3: each witness has
    x = y^(5^n), lies on the line, and reports the order of y."""
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    witnesses = report["result"]["witnesses"]
    _expect(problems, "witness count", len(witnesses), 3)
    for w in witnesses:
        x, y, n = w["x"], w["y"], w["n"]
        F = Field(P, y["deg"])
        yv = F.decode(y["enc"])
        if not (1 <= n <= 3 and yv and x["deg"] == y["deg"]):
            problems.append(f"witness {w} is out of the search bounds")
        elif F.pow(yv, P**n) != F.decode(x["enc"]) or not _on_line(x, y):
            problems.append(f"witness {w} is not a point (y^(5^n), y) of X + Y - 1")
        elif w["shared_order"] != F.order(yv):
            problems.append(f"witness {w}: order of y is {F.order(yv)}")
        elif w["cm_status"] == "shared" and False in (
                _hilbert_root(w["shared_cm"], x), _hilbert_root(w["shared_cm"], y)):
            problems.append(f"witness {w}: a coordinate is not a root of H_D")
    return problems


# ---------------------------------------------------------------------------
# library queries on big fields
# ---------------------------------------------------------------------------

def check_query(query: dict, answer) -> list[str]:
    op = query["op"]
    if op == "count":
        p, k = query["p"], query["k"]
        t = trace_over_extension(trace_over_prime(query["a"], query["b"], p), p, k)
        return [] if answer == p**k + 1 - t else [f"{query}: {answer} points, expected {p**k + 1 - t}"]
    D, v, p, j = query["D"], query["v"], query["p"], query["j"]
    if op == "disc":
        return [] if answer == D else [f"{query}: discriminant {answer}, expected {D}"]
    ell = query["ell"]
    if op == "volcano":
        want = [0, valuation(v, ell)]
        return [] if answer == want else [f"{query}: (level, depth) {answer}, expected {want}"]
    # neighbors of a surface vertex with ell | v: all ell + 1 are rational;
    # the horizontal ones (disc D) are roots of H_D, which has j as its only
    # root, and all others descend to disc ell^2 D
    problems = []
    total = sum(m for _, _, m in answer)
    _expect(problems, f"{query}: neighbour count", total, ell + 1)
    horizontal = sum(m for _, enc, m in answer if enc == j)
    _expect(problems, f"{query}: neighbours of disc D", horizontal, 1 + kronecker(D, ell))
    for deg, enc, _ in answer:
        if deg != 1 or phi_value(ell, j, enc, p):
            problems.append(f"{query}: ({deg}, {enc}) is not a rational ell-neighbour")
    return problems
