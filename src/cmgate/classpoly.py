"""Binary quadratic forms, class numbers, Hilbert class polynomials mod p,
the Kronecker symbol, and the inert-prime obstruction check.

H_D mod p is never lifted from characteristic zero: its roots are collected
directly in F_{p^m} (m = order of the class of p) and identified by their
volcano-computed endomorphism discriminant, then the degree is checked
against the reduced-form class number.  That degree law is the independent
anchor that keeps the two endomorphism-ring providers honest.

Only a j of degree m whose Frobenius trace satisfies 4p^m = t^2 + w^2|D|
can have discriminant D, so only those are classified: the trace classes of
the root field, one trace per Frobenius orbit, name all of them.  Roots are
collected this way in every field with log tables (q <= 2^16).
"""

from __future__ import annotations

import os
from math import gcd, isqrt

from . import _cache, ecurve, endoring, ffield
from .errors import (
    BothZero,
    NotADiscriminant,
    PDividesD,
    PInert,
    ProviderDisagreement,
    SearchCeilingExceeded,
    SizeExceeded,
    UnsupportedLevel,
    _require,
)
from .ffield import FieldElement, make_field
from .polyring import UniPoly
from ._numutil import factorize, is_prime

#: the largest root field of an H_D that endo_discriminant's "auto" check
#: builds, and of the (D, p) that acceptance criteria 3 and 4 choose
AUTO_CHECK_MAX_Q = 4096

SEARCH_CEILING_DEFAULT = 10**6


def validate_discriminant(D: int) -> int:
    if D >= 0 or D % 4 not in (0, 1):
        raise NotADiscriminant(f"{D} is not in the discriminant set")
    return D


# ---------------------------------------------------------------------------
# Kronecker symbol
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a | n) with the standard 2 and -1 conventions."""
    if a == 0 and n == 0:
        raise BothZero("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# reduced forms and class numbers
# ---------------------------------------------------------------------------

class ReducedForm:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self.a = a
        self.b = b
        self.c = c

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def __repr__(self):
        return f"ReducedForm{self.as_tuple()}"


def reduced_forms(D: int) -> list[ReducedForm]:
    """All reduced primitive forms of discriminant D, by the standard scan."""
    validate_discriminant(D)
    out = []
    a_max = isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            out.append(ReducedForm(a, b, c))
    return out


def class_number(D: int) -> int:
    class_numbers = _cache.store("class_number")
    h = class_numbers.get(D)
    if h is None:
        h = _cache.publish(class_numbers, D, len(reduced_forms(D)))
    return h


# ---------------------------------------------------------------------------
# Hilbert class polynomials mod p
# ---------------------------------------------------------------------------

class ClassPolynomialModP:
    """H_D mod p: monic, prime-field coefficients, degree = class number."""

    __slots__ = ("D", "ctx", "poly", "root_ctx", "roots")

    def __init__(self, D, ctx, poly, root_ctx, roots):
        self.D = D
        self.ctx = ctx
        self.poly = poly
        self.root_ctx = root_ctx
        self.roots = roots

    def __repr__(self):
        return f"ClassPolynomialModP(D={self.D}, p={self.ctx.p}, degree={self.poly.degree()})"


def _representation_traces(D: int, q: int, p: int) -> set[int]:
    """Positive traces t with 4q = t^2 + w^2 |D|, w >= 1, p not dividing t."""
    out = set()
    w = 1
    while w * w * (-D) <= 4 * q:
        t2 = 4 * q - w * w * (-D)
        t = isqrt(t2)
        if t * t == t2 and t % p != 0:
            out.add(t)
        w += 1
    return out


def class_order_of_p(D: int, p: int, max_q: int | None = None) -> int | None:
    """Order of the class of p in cl(O_D): least m with 4p^m = t^2 + w^2|D|.

    Returns None when no solution exists with p^m <= max_q (the class
    polynomial's roots would then live beyond the configured reach).
    """
    validate_discriminant(D)
    cap = max_q if max_q is not None else ffield._TABLE_MAX
    h = class_number(D)
    q = 1
    for m in range(1, h + 1):
        q *= p
        if q > cap:
            return None
        if _representation_traces(D, q, p):
            return m
    return None


def hilbert_mod_p(D: int, p: int) -> ClassPolynomialModP:
    """H_D mod p by root collection, for split p not dividing D.

    Roots are the j-invariants whose volcano-computed endomorphism
    discriminant equals D; the construction is rejected loudly whenever a
    candidate cannot be classified (conductor primes beyond the vendored
    modular-polynomial levels).
    """
    hilberts = _cache.store("hilbert")
    cached = hilberts.get((D, p))
    if cached is not None:
        return cached
    validate_discriminant(D)
    if p < 5 or not is_prime(p):
        raise ValueError(f"{p} is not an admissible prime")
    if D % p == 0:
        raise PDividesD(f"{p} divides {D}")
    if kronecker(D, p) != 1:
        raise PInert(f"{p} is not split for discriminant {D}")
    d_K, f_D = endoring.split_discriminant(D)
    levels = endoring.supported_levels()
    if f_D > 1:
        for prime in factorize(f_D):
            if prime not in levels:
                raise UnsupportedLevel(
                    f"conductor prime {prime} outside the supported levels {levels}"
                )
    h = class_number(D)
    m = class_order_of_p(D, p)
    if m is None:
        raise SizeExceeded(
            f"roots of H_{D} mod {p} live beyond the sampling bound {ffield._TABLE_MAX}"
        )
    ctx = make_field(p, m)
    roots = _collect_roots_sweep(D, p, m, h)
    if len(roots) != h:
        raise ProviderDisagreement(
            f"H_{D} mod {p}: collected {len(roots)} roots, class number is {h}"
        )
    # the roots are distinct, so the product has F_p coefficients exactly
    # when the root set is Galois-stable
    poly = UniPoly.from_ints(
        make_field(p, 1), ffield.conjugate_product(ctx, [r.encoding() for r in roots]))
    _require(poly.gcd(poly.derivative()).degree() == 0, "H_D mod p must be squarefree")
    result = ClassPolynomialModP(D, poly.ctx, poly, ctx, roots)
    return _cache.publish(hilberts, (D, p), result)


def _collect_roots_sweep(D: int, p: int, m: int, h: int) -> list[FieldElement]:
    ctx = make_field(p, m)
    # a root has degree m and a trace from _representation_traces; m is least,
    # so no j of a proper subfield has such a trace
    candidates = endoring.ordinary_disc_map(ctx, _representation_traces(D, ctx.q, p))
    roots = [
        ctx.from_encoding(enc) for enc, val in sorted(candidates.items())
        if isinstance(val, endoring.CMOrder) and val.D == D
    ]
    # fewer than h roots is a degree-law failure, which hilbert_mod_p
    # reports, unless a candidate went unclassified
    if len(roots) < h and any(val is endoring.UNSUPPORTED for val in candidates.values()):
        raise UnsupportedLevel(
            f"H_{D} mod {p}: unclassifiable candidate root "
            f"(conductor beyond the vendored levels)"
        )
    return roots


# perfbench/child.py wraps this name to count sampled roots; nothing here
# calls it.  It goes with ROADMAP item 10.
_collect_roots_sampled = _collect_roots_sweep


def hilbert_eval(D: int, x: FieldElement) -> FieldElement:
    """H_D(x) in x's field (split-p construction behind the scenes)."""
    H = hilbert_mod_p(D, x.ctx.p)
    return H.poly.evaluate(x)


def reference_table() -> dict[int, list[int]]:
    """The vendored integer H_D table (cross-check data, never construction)."""
    path = os.path.join(_cache.data_dir(), "hilbert_small.txt")
    out: dict[int, list[int]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, tail = line.split(":")
            out[int(head)] = [int(tok) for tok in tail.split()]
    return out


# ---------------------------------------------------------------------------
# discriminant search and the inert obstruction
# ---------------------------------------------------------------------------

def find_test_discriminant(ell: int, p: int, d_min: int, ell_symbol: int = -1) -> int:
    """Smallest prime |D| > d_min with -|D| = 1 mod 4, (D | ell) = ell_symbol
    and p split: ell_symbol = -1 makes ell inert, 1 makes it split."""
    if ell == p:
        raise ValueError("the two primes must be distinct")
    if not (is_prime(ell) and is_prime(p)):
        raise ValueError("both arguments must be prime")
    d_abs = max(3, d_min + 1)
    while d_abs <= SEARCH_CEILING_DEFAULT:
        if (
            d_abs % 4 == 3
            and is_prime(d_abs)
            and kronecker(-d_abs, ell) == ell_symbol
            and kronecker(-d_abs, p) == 1
        ):
            return -d_abs
        d_abs += 1
    raise SearchCeilingExceeded(
        f"no admissible discriminant with |D| <= {SEARCH_CEILING_DEFAULT} (d_min={d_min})"
    )


def inert_obstruction_check(D: int, ell: int, p: int) -> bool:
    """True iff Phi_ell never vanishes on ordered pairs of H_D-mod-p roots.

    For ell inert in Q(sqrt(D)) this must hold (no horizontal ell-isogeny
    between curves with CM by the order of discriminant D); a False return
    is a falsification signal, not an error.  Run with split ell to watch
    the check fail, which is the sharpness control.
    """
    validate_discriminant(D)
    if p % ell == 0 or D % p == 0:
        raise ValueError("require p coprime to ell and D")
    H = hilbert_mod_p(D, p)
    for j1 in H.roots:
        phi_j1 = endoring.phi_at_j(ell, j1)
        for j2 in H.roots:
            if phi_j1.evaluate(j2).is_zero():
                return False
    return True
