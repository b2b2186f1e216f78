"""Elliptic curves over F_{p^k} (p >= 5): models from j-invariants, exact
point counts, Frobenius trace data, supersingularity.

Counting is a quadratic-character scan up to NAIVE_THRESHOLD, the one cut
point between the two counts, and baby-step giant-step over the Hasse
interval beyond it, with the usual twist disambiguation: orders of
deterministically sampled points on the curve and its quadratic twist are
intersected until a single group order survives in the interval.
trace_filter is the cheap one-point test that rules traces out without a
count.
"""

from __future__ import annotations

from math import isqrt

from . import _cache, ffield
from .errors import SizeExceeded, _require
from .ffield import FieldCtx, FieldElement, embed
from ._numutil import crc_rng, factorize

#: the character scan counts fields up to this size, BSGS the larger ones;
#: the two cost the same near q = 1800 in prime and extension fields alike
NAIVE_THRESHOLD = 1800


class EllipticCurve:
    """Short Weierstrass y^2 = x^3 + a x + b with nonzero discriminant."""

    __slots__ = ("ctx", "a", "b", "j")

    def __init__(self, a: FieldElement, b: FieldElement):
        ctx = a.ctx
        disc = a * a * a.scale(4) + b * b.scale(27)
        if disc.is_zero():
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")
        self.ctx = ctx
        self.a = a
        self.b = b
        self.j = j_invariant(a, b)

    def rhs(self, x: FieldElement) -> FieldElement:
        return (x * x + self.a) * x + self.b

    def base_change(self, target: FieldCtx) -> "EllipticCurve":
        return EllipticCurve(embed(self.a, target), embed(self.b, target))

    def quadratic_twist(self) -> "EllipticCurve":
        c = _nonsquare(self.ctx)
        c2 = c * c
        return EllipticCurve(self.a * c2, self.b * c2 * c)

    def __repr__(self):
        return f"EllipticCurve(a={self.a!r}, b={self.b!r})"


class FrobeniusData:
    """(q, trace t, discriminant t^2 - 4q) of a curve over F_q."""

    __slots__ = ("q", "t", "d_pi")

    def __init__(self, q: int, t: int):
        if t * t > 4 * q:
            raise ValueError("trace violates the Hasse bound")
        self.q = q
        self.t = t
        self.d_pi = t * t - 4 * q

    def __repr__(self):
        return f"FrobeniusData(q={self.q}, t={self.t}, d_pi={self.d_pi})"


def j_invariant(a: FieldElement, b: FieldElement) -> FieldElement:
    four_a3 = a * a * a.scale(4)
    disc = four_a3 + b * b.scale(27)
    return (four_a3 / disc).scale(1728)


def curve_from_j(j: FieldElement) -> EllipticCurve:
    """The fixed model with the given j-invariant.

    j not in {0, 1728}: a = 3j(1728 - j), b = 2j(1728 - j)^2;
    j = 0: y^2 = x^3 + 1;  j = 1728: y^2 = x^3 + x.
    """
    ctx = j.ctx
    if j.is_zero():
        return EllipticCurve(ctx.zero(), ctx.one())
    k1728 = ctx.from_int(1728)
    if j == k1728:
        return EllipticCurve(ctx.one(), ctx.zero())
    w = k1728 - j
    a = j.scale(3) * w
    b = j.scale(2) * w * w
    curve = EllipticCurve(a, b)
    _require(curve.j == j, "the model of j must have j-invariant j")
    return curve


# ---------------------------------------------------------------------------
# group arithmetic (affine, infinity = None)
# ---------------------------------------------------------------------------

def _ec_add(P, Q, a: FieldElement):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2).is_zero():
            return None
        lam = (x1 * x1).scale(3) + a
        lam = lam / (y1 + y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def _ec_neg(P):
    if P is None:
        return None
    return (P[0], -P[1])

def _ec_mul(n: int, P, a: FieldElement):
    if n < 0:
        return _ec_mul(-n, _ec_neg(P), a)
    R = None
    Q = P
    while n:
        if n & 1:
            R = _ec_add(R, Q, a)
        Q = _ec_add(Q, Q, a)
        n >>= 1
    return R


def _nonsquare(ctx: FieldCtx) -> FieldElement:
    log = ctx.log
    if log is not None:
        for enc in range(2, ctx.q):
            if log[enc] & 1:
                return ctx.from_encoding(enc)
        raise AssertionError("no nonsquare found")
    exp = (ctx.q - 1) // 2
    rng = crc_rng("nonsquare", ctx.p, ctx.k)
    while True:
        x = ctx.from_encoding(rng.randrange(1, ctx.q))
        if (x**exp) != ctx.one():
            return x


def _chi(ctx: FieldCtx, u: FieldElement) -> int:
    if u.is_zero():
        return 0
    log = ctx.log
    if log is not None:
        return -1 if log[u.encoding()] & 1 else 1
    return 1 if u ** ((ctx.q - 1) // 2) == ctx.one() else -1


def _sqrt(ctx: FieldCtx, u: FieldElement) -> FieldElement:
    """Square root of a known quadratic residue (Tonelli-Shanks)."""
    if u.is_zero():
        return u
    log = ctx.log
    if log is not None:
        lg = log[u.encoding()]
        _require(lg % 2 == 0, "a square has an even discrete log")
        return ctx.from_encoding(ctx.exp[lg // 2])
    q = ctx.q
    s, t = 0, q - 1
    while t % 2 == 0:
        t //= 2
        s += 1
    z = _nonsquare(ctx) ** t
    x = u ** ((t + 1) // 2)
    b = u**t
    while b != ctx.one():
        m, c = 0, b
        while c != ctx.one():
            c = c * c
            m += 1
        for _ in range(s - m - 1):
            z = z * z
        x = x * z
        z = z * z
        b = b * z
        s = m
    return x


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_points(E: EllipticCurve) -> int:
    """#E(F_q) including the point at infinity."""
    ctx = E.ctx
    if ctx.q > ffield.SIZE_BOUND:
        raise SizeExceeded("field beyond the configured size bound")
    if ctx.q <= NAIVE_THRESHOLD:
        return _naive_count(E)
    return _bsgs_count(E)


def _naive_count(E: EllipticCurve) -> int:
    ctx = E.ctx
    if ctx.k == 1:
        p = ctx.p
        a, b = E.a.encoding(), E.b.encoding()
        squares = bytearray(p)
        for z in range((p + 1) // 2):
            squares[z * z % p] = 1
        count = p + 1
        for x in range(p):
            rhs = (x * x * x + a * x + b) % p
            if rhs:
                count += 1 if squares[rhs] else -1
        return count
    count = ctx.q + 1
    if ctx.log is not None:
        return count + _log_character_sum(ctx, E.a.encoding(), E.b.encoding())
    for x in ffield.enumerate_elements(ctx):
        count += _chi(ctx, E.rhs(x))
    return count


def _log_character_sum(ctx: FieldCtx, a: int, b: int) -> int:
    """Sum of chi(x^3 + a x + b) over F_q (k >= 2), on discrete logs.

    a and b are encodings.  chi(g^u) = (-1)^u, and g^u + g^v = g^(u + Z[v - u])
    through the context's Zech table Z, which holds -1 where the sum is 0.
    q - 1 is even, so a log's parity survives leaving it unreduced.
    """
    log, zech, qm1 = ctx.log, ctx.zech, ctx.qm1
    la, lb = log[a], log[b]
    chi_b = (-1 if lb & 1 else 1) if b else 0
    total = chi_b  # x = 0
    for lx in range(qm1):
        u = 3 * lx % qm1  # log of x^3
        if a:
            z = zech[(la + lx - u) % qm1]
            if z < 0:  # x^3 + a x = 0
                total += chi_b
                continue
            u += z
        if b:
            z = zech[(lb - u) % qm1]
            if z < 0:
                continue
            u += z
        total += -1 if u & 1 else 1
    return total


def _point_order(P, a, lo: int, hi: int) -> int:
    """Exact order of P, via one annihilator in [lo, hi] plus reduction."""
    width = hi - lo
    m = isqrt(width) + 1
    # key points by the coordinates' stored values, not by encoding()
    if a.ctx.log is not None:
        def key(R):
            return R if R is None else (R[0].n, R[1].n)
    else:
        def key(R):
            return R if R is None else (R[0].coeffs, R[1].coeffs)
    baby = {}
    Q = None
    for j in range(m):
        baby.setdefault(key(Q), j)
        Q = _ec_add(Q, P, a)
    mP = _ec_mul(m, P, a)
    annihilator = None
    R = _ec_mul(lo, P, a)
    i = 0
    while lo + i * m <= hi:
        j = baby.get(key(_ec_neg(R)))
        if j is not None and lo + i * m + j <= hi:
            annihilator = lo + i * m + j
            break
        R = _ec_add(R, mP, a)
        i += 1
    _require(annihilator is not None, "group order must annihilate every point")
    if annihilator == 0:
        return 1
    d = annihilator
    for prime in factorize(annihilator):
        while d % prime == 0 and _ec_mul(d // prime, P, a) is None:
            d //= prime
    return d


def _multiples_in_interval(d: int, lo: int, hi: int) -> list[int]:
    start = ((lo + d - 1) // d) * d
    return list(range(start, hi + 1, d))


def _random_point(E: EllipticCurve, rng) -> tuple:
    ctx = E.ctx
    while True:
        x = ctx.from_encoding(rng.randrange(ctx.q))
        r = E.rhs(x)
        c = _chi(ctx, r)
        if c == -1:
            continue
        return (x, _sqrt(ctx, r))


def _bsgs_count(E: EllipticCurve) -> int:
    ctx = E.ctx
    q = ctx.q
    s = isqrt(4 * q)
    lo, hi = q + 1 - s, q + 1 + s
    twist = E.quadratic_twist()
    rng = crc_rng("bsgs", ctx.p, ctx.k, E.a.encoding(), E.b.encoding())
    candidates: set[int] | None = None
    for round_no in range(64):
        use_twist = round_no % 2 == 1
        curve = twist if use_twist else E
        P = _random_point(curve, rng)
        d = _point_order(P, curve.a, lo, hi)
        hits = _multiples_in_interval(d, lo, hi)
        if use_twist:
            hits = [2 * q + 2 - n for n in hits]
        new = set(hits)
        candidates = new if candidates is None else candidates & new
        if len(candidates) == 1:
            return candidates.pop()
        if not candidates:
            raise AssertionError("point-count candidate set became empty")
    raise AssertionError(f"group order not unique after sampling (q={q})")


def frobenius_data(E: EllipticCurve) -> FrobeniusData:
    n = count_points(E)
    return FrobeniusData(E.ctx.q, E.ctx.q + 1 - n)


def trace_of_j(j: FieldElement) -> FrobeniusData:
    """Frobenius data of the fixed model over the minimal field of j (cached)."""
    jm = ffield.minimal_field(j)
    key = (jm.ctx.p, jm.ctx.k, jm.encoding())
    traces = _cache.store("trace")
    t = traces.get(key)
    if t is None:
        t = _cache.publish(traces, key, frobenius_data(curve_from_j(jm)).t)
    return FrobeniusData(jm.ctx.q, t)


def is_supersingular_j(j: FieldElement) -> bool:
    return trace_of_j(j).t % j.ctx.p == 0


def trace_filter(E: EllipticCurve, traces, rng) -> bool:
    """False only if #E(F_q) = q + 1 - t holds for no t with |t| in traces.

    For a point P drawn with rng, #E = q + 1 -+ t forces [q + 1]P = +-[t]P:
    both are infinity or they share their x-coordinate.  One point and a few
    scalar multiples rule most curves out before any count (the filter of
    Sutherland, "Computing Hilbert class polynomials with the Chinese
    Remainder Theorem", Math. Comp. 80 (2011)).
    """
    a = E.a
    P = _random_point(E, rng)
    R = _ec_mul(E.ctx.q + 1, P, a)
    for t in traces:
        S = _ec_mul(t, P, a)
        if R is None or S is None:
            if R is S:
                return True
        elif R[0] == S[0]:
            return True
    return False
