"""Elliptic curves over F_{p^k} (p >= 5): models from j-invariants, exact
point counts, Frobenius trace data, supersingularity, and the trace classes
of a field: its Frobenius orbits of j grouped by orbit size and |t|.

A field with log tables gets the trace of every j at once from its trace
table: for y^2 = x^3 + a0 x + b with a0 in {1, g}, the point counts over all
b form one cyclic convolution over (F_q, +), computed as a single exact
integer product by Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44 (2009)), and each fixed model is a twist of one of these curves.

Counting is a quadratic-character scan up to NAIVE_THRESHOLD, the one cut
point between the two counts, and baby-step giant-step over the Hasse
interval beyond it, with the usual twist disambiguation: each deterministically
sampled point, on the curve or on its quadratic twist, gives its annihilator
set, the n in the interval with nP = O, from one sweep over the whole
interval, and the sets are intersected until a single group order survives.
trace_filter is the cheap one-point test that rules traces out without a
count.

The group law behind BSGS and the filter runs on plain ints: residue pairs
in every prime field, pairs of discrete logs with Zech additions in
F_{p^k}, k >= 2, with log tables (q <= 2^16), and pairs of power-basis
coefficient tuples in larger extension fields.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable

from . import _cache, ffield
from .errors import InternalInvariant, SizeExceeded, _require
from .ffield import FieldCtx, FieldElement, embed, zech_add
from ._numutil import crc_rng

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
# group arithmetic: affine points, infinity = None, one law per representation
# ---------------------------------------------------------------------------

class _ResidueLaw:
    """The group law over F_p on pairs of residues."""

    __slots__ = ("p", "a")

    def __init__(self, E: EllipticCurve):
        self.p = E.ctx.p
        self.a = E.a.encoding()

    def point(self, x: FieldElement, y: FieldElement) -> tuple[int, int]:
        return (x.encoding(), y.encoding())

    def neg(self, P):
        return None if P is None else (P[0], -P[1] % self.p)

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)


class _LogLaw:
    """The group law over F_{p^k}, k >= 2 with log tables, on pairs of
    discrete logs (-1 for 0): products add logs, sums are Zech lookups and
    -g^u = g^(u + half)."""

    __slots__ = ("log", "zech", "qm1", "half", "a", "log2", "log3")

    def __init__(self, E: EllipticCurve):
        ctx = E.ctx
        self.log, self.zech, self.qm1, self.half = ctx.log, ctx.zech, ctx.qm1, ctx.half
        self.a = self._log(E.a)
        self.log2, self.log3 = ctx.log[2], ctx.log[3]

    def _log(self, x: FieldElement) -> int:
        return self.log[x.n] if x.n else -1

    def point(self, x: FieldElement, y: FieldElement) -> tuple[int, int]:
        return (self._log(x), self._log(y))

    def neg(self, P):
        if P is None or P[1] < 0:
            return P
        return (P[0], (P[1] + self.half) % self.qm1)

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        zech, qm1, half = self.zech, self.qm1, self.half
        x1, y1 = P
        x2, y2 = Q
        # logs of -x1, -x2, -y1
        nx1 = (x1 + half) % qm1 if x1 >= 0 else -1
        nx2 = (x2 + half) % qm1 if x2 >= 0 else -1
        ny1 = (y1 + half) % qm1 if y1 >= 0 else -1
        if x1 == x2:
            if y2 == ny1:
                return None  # Q = -P
            # (3 x1^2 + a) / (2 y1)
            num = self.a if x1 < 0 else zech_add(zech, qm1, self.log3 + 2 * x1, self.a)
            den = self.log2 + y1
        else:
            # (y2 - y1) / (x2 - x1)
            num = zech_add(zech, qm1, y2, ny1)
            den = zech_add(zech, qm1, x2, nx1)
        lam = (num - den) % qm1 if num >= 0 else -1
        # x3 = lam^2 - x1 - x2, y3 = lam (x1 - x3) - y1
        x3 = zech_add(zech, qm1, zech_add(zech, qm1, 2 * lam % qm1 if lam >= 0 else -1, nx1), nx2)
        d = zech_add(zech, qm1, x1, (x3 + half) % qm1 if x3 >= 0 else -1)
        t = (lam + d) % qm1 if lam >= 0 and d >= 0 else -1
        return (x3, zech_add(zech, qm1, t, ny1))


class _CoeffLaw:
    """The group law over F_{p^k}, k >= 2 above the table cut, on pairs of
    power-basis coefficient tuples, through the context's tuple kernels."""

    __slots__ = ("p", "a", "mul", "inv")

    def __init__(self, E: EllipticCurve):
        ctx = E.ctx
        self.p = ctx.p
        self.a = E.a.coeffs
        self.mul, self.inv = ctx._mul_coeffs, ctx._inv_coeffs

    def point(self, x: FieldElement, y: FieldElement) -> tuple:
        return (x.coeffs, y.coeffs)

    def neg(self, P):
        if P is None:
            return None
        p = self.p
        return (P[0], tuple(-c % p for c in P[1]))

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        p, mul = self.p, self.mul
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if not any((u + v) % p for u, v in zip(y1, y2)):
                return None
            # (3 x1^2 + a) / (2 y1)
            num = tuple((3 * u + v) % p for u, v in zip(mul(x1, x1), self.a))
            den = tuple(2 * u % p for u in y1)
        else:
            # (y2 - y1) / (x2 - x1)
            num = tuple((u - v) % p for u, v in zip(y2, y1))
            den = tuple((u - v) % p for u, v in zip(x2, x1))
        lam = mul(num, self.inv(den))
        x3 = tuple((u - v - w) % p for u, v, w in zip(mul(lam, lam), x1, x2))
        d = tuple((u - v) % p for u, v in zip(x1, x3))
        return (x3, tuple((u - v) % p for u, v in zip(mul(lam, d), y1)))


def _group_law(E: EllipticCurve):
    """Residues for every prime field, discrete logs for k >= 2 with log
    tables, coefficient tuples otherwise."""
    ctx = E.ctx
    if ctx.k == 1:
        return _ResidueLaw(E)
    if ctx.log is not None:
        return _LogLaw(E)
    return _CoeffLaw(E)


def _ec_mul(n: int, P, law):
    if n < 0:
        return _ec_mul(-n, law.neg(P), law)
    R = None
    Q = P
    while n:
        if n & 1:
            R = law.add(R, Q)
        n >>= 1
        if n:
            Q = law.add(Q, Q)
    return R


def _nonsquare(ctx: FieldCtx) -> FieldElement:
    log = ctx.log
    if log is not None:
        for enc in range(2, ctx.q):
            if log[enc] & 1:
                return ctx.from_encoding(enc)
        raise InternalInvariant("no nonsquare found")
    rng = crc_rng("nonsquare", ctx.p, ctx.k)
    while True:
        x = ctx.from_encoding(rng.randrange(1, ctx.q))
        if _chi(ctx, x) == -1:
            return x


def _chi(ctx: FieldCtx, u: FieldElement) -> int:
    """The quadratic character: the parity of the log with tables, else the
    Legendre symbol of the norm, since u^((q - 1)/2) = N(u)^((p - 1)/2)."""
    if u.is_zero():
        return 0
    log = ctx.log
    if log is not None:
        return -1 if log[u.encoding()] & 1 else 1
    p = ctx.p
    return 1 if pow(ctx._norm_parts(u.coeffs)[1], (p - 1) // 2, p) == 1 else -1


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
    # q <= NAIVE_THRESHOLD <= ffield._TABLE_MAX: the field has log tables
    return ctx.q + 1 + _log_character_sum(ctx, E.a.encoding(), E.b.encoding())


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


def _annihilators(P, law, lo: int, hi: int) -> list[int]:
    """Every n in [lo, hi] with nP = O, ascending, from one baby-step
    giant-step sweep over the whole interval.

    The annihilators are the multiples of ord(P).  If a baby step jP, 0 < j < m,
    is O, then ord(P) = j; otherwise ord(P) >= m, so each giant block of m
    consecutive n holds at most one of them.
    """
    m = isqrt(hi - lo) + 1
    baby = {}
    Q = None
    for j in range(m):
        if j and Q is None:
            return list(range(-(-lo // j) * j, hi + 1, j))
        baby[Q] = j
        Q = law.add(Q, P)
    mP = Q
    out = []
    R = _ec_mul(lo, P, law)
    for n in range(lo, hi + 1, m):
        j = baby.get(law.neg(R))
        if j is not None and n + j <= hi:
            out.append(n + j)
        R = law.add(R, mP)
    _require(bool(out), "the group order annihilates every point")
    return out


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
    twist = None  # built on the first twist round; most counts end before it
    rng = crc_rng("bsgs", ctx.p, ctx.k, E.a.encoding(), E.b.encoding())
    candidates: set[int] | None = None
    for round_no in range(64):
        use_twist = round_no % 2 == 1
        if use_twist and twist is None:
            twist = E.quadratic_twist()
        curve = twist if use_twist else E
        law = _group_law(curve)
        hits = _annihilators(law.point(*_random_point(curve, rng)), law, lo, hi)
        if use_twist:
            hits = [2 * q + 2 - n for n in hits]
        new = set(hits)
        candidates = new if candidates is None else candidates & new
        if len(candidates) == 1:
            return candidates.pop()
        if not candidates:
            raise InternalInvariant("point-count candidate set became empty")
    raise InternalInvariant(f"group order not unique after sampling (q={q})")


def frobenius_data(E: EllipticCurve) -> FrobeniusData:
    n = count_points(E)
    return FrobeniusData(E.ctx.q, E.ctx.q + 1 - n)


def trace_of_j(j: FieldElement, key: int | None = None) -> FrobeniusData:
    """Frobenius data of the fixed model over the minimal field of j.

    Conjugate j have conjugate fixed models, so the trace is cached per
    Frobenius orbit, under its least encoding, and counted on the model of
    that least conjugate.  A caller that holds j in its minimal field and
    knows that encoding passes it as key.
    """
    if key is None:
        j = ffield.minimal_field(j)
        key = ffield.orbit_key(j)
    ctx = j.ctx
    traces = _cache.store("trace")
    t = traces.get((ctx.p, ctx.k, key))
    if t is None:
        t = frobenius_data(curve_from_j(ctx.from_encoding(key))).t
        t = _cache.publish(traces, (ctx.p, ctx.k, key), t)
    return FrobeniusData(ctx.q, t)


def _pack(slots, values, size: int, span: int) -> int:
    """The integer whose digit slots[i], in base 2^(8 size) and below
    position span, is values[i]; every other digit is 0."""
    digits = bytearray(size * span)
    for s, n in zip(slots, values):
        digits[size * s:size * (s + 1)] = n.to_bytes(size, "little")
    return int.from_bytes(digits, "little")


def _cubic_fibres(ctx: FieldCtx, e: int) -> list[int]:
    """H[v] = #{x in F_q : x^3 + g^e x = v} for every encoding v; g is the
    primitive element of the log tables."""
    p, q, qm1, exp = ctx.p, ctx.q, ctx.qm1, ctx.exp
    fibres = [0] * q
    if ctx.k == 1:
        a0 = exp[e]
        for x in range(p):
            fibres[(x * x + a0) * x % p] += 1
        return fibres
    zech = ctx.zech
    fibres[0] = 1  # x = 0
    for u in range(qm1):  # x = g^u: x^3 + g^e x = g^(u + e) (1 + g^(2u - e))
        z = zech[(2 * u - e) % qm1]
        fibres[exp[(u + e + z) % qm1] if z >= 0 else 0] += 1
    return fibres


def trace_table(ctx: FieldCtx) -> Callable[[int], int]:
    """The trace over ctx, a field with log tables, of the fixed model of
    every j other than 0 and 1728, as a function of j's encoding.

    For a0 = g^e, e in {0, 1}, the affine points of y^2 = x^3 + a0 x + b
    number R(b) = sum_v H(v) (chi(v + b) + 1), with H from _cubic_fibres and
    chi the quadratic character; H(-v) = H(v), so R is the convolution of H
    with chi + 1 over (F_q, +) = (Z/p)^k.  Kronecker substitution turns it
    into one exact integer product: the digits of an encoding, read in base
    2p - 1, index W-bit slots, where 2q < 2^W bounds every slot of the
    product, and folding each digit mod p makes the convolution cyclic.
    The fixed model (3jw, 2jw^2), w = 1728 - j, is the twist by lambda of
    (a0, lambda^3 b) with lambda^2 = a0 / a, so t = chi(lambda) (q - R(lambda^3 b)).

    Every entry is checked against the Hasse bound and against the 2-torsion:
    the points with y = 0 are the H(-b) roots of x^3 + a0 x + b and the others
    pair up, so R(b) = H(-b) mod 2; for a nonsingular curve, #E = R(b) + 1 is
    even exactly when H(-b) > 0.
    """
    p, k, q, qm1, half, exp, log = ctx.p, ctx.k, ctx.q, ctx.qm1, ctx.half, ctx.exp, ctx.log
    base = 2 * p - 1
    slot = [0]  # slot[n]: the base-p digits of encoding n, read in base 2p - 1
    for i in range(k):
        step = base**i
        slot = [s + c * step for c in range(p) for s in slot]
    size = next(n for n in (1, 2, 4) if 2 * q < 1 << 8 * n)  # bytes a slot
    width, span = 8 * size, slot[-1] + 1
    _require(2 * q < 1 << width, "a slot holds every convolution sum, at most 2q")
    chi1 = _pack(slot, [1] + [0 if log[v] & 1 else 2 for v in range(1, q)], size, span)
    folds = [  # (shift, mask): the slots whose digit i is below p - 1 take digit i + p
        (width * p * base**i,
         int.from_bytes((b"\xff" * (size * (p - 1) * base**i)
                         + bytes(size * p * base**i)) * base ** (k - 1 - i), "little"))
        for i in range(k)
    ]
    neg = [0] + [exp[log[v] + half] for v in range(1, q)]
    hasse = isqrt(4 * q)
    affine = []
    for e in (0, 1):
        fibres = _cubic_fibres(ctx, e)
        _require(sum(fibres) == q, "the cubic's fibres partition F_q")
        product = _pack(slot, fibres, size, span) * chi1
        for shift, mask in folds:
            product += (product >> shift) & mask
        sums = product.to_bytes(size * base**k, "little")
        row = [int.from_bytes(sums[size * s:size * (s + 1)], "little") for s in slot]
        _require(all(abs(q - r) <= hasse and (r - fibres[neg[b]]) % 2 == 0
                     for b, r in enumerate(row)),
                 "a tabled count breaks the Hasse bound or the 2-torsion parity")
        affine.append(row)
    k1728 = ctx.from_int(1728)
    log2, log3 = log[2], log[3]

    def trace(j: int) -> int:
        lj = log[j]
        lw = log[(k1728 - ctx.from_encoding(j)).encoding()]
        la = (log3 + lj + lw) % qm1
        e = la & 1  # a0 = g^e makes a0 / a a square
        ll = (e - la) % qm1 // 2  # log lambda
        r = affine[e][exp[(3 * ll + log2 + lj + 2 * lw) % qm1]]
        return -(q - r) if ll & 1 else q - r

    return trace


def trace_classes(ctx: FieldCtx) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """The Frobenius orbits of ctx grouped by (d, |t|): d is the orbit size,
    the degree of its field of definition, and t the trace of the fixed model
    over F_{p^d}.

    Each orbit is the ffield.frobenius_orbit of its least encoding: that
    encoding first, then its conjugates in Frobenius order; the walk marks
    every conjugate seen, so orbits ascend by least encoding.  With
    log tables, the orbits that span ctx read their traces from one
    trace_table and publish them to the trace store under that least
    encoding; j = 0, 1728, orbits of proper subfields and fields without
    tables take trace_of_j.  Cached per field in a store of its own that no
    configuration reaches: traces do not depend on the modular-polynomial data.
    """
    key = (ctx.p, ctx.k)
    found = _cache.store("trace_classes")
    classes = found.get(key)
    if classes is not None:
        return classes
    table = trace_table(ctx) if ctx.log is not None else None
    special = {0, ctx.from_int(1728).encoding()}
    traces = _cache.store("trace")
    grouped: dict[tuple[int, int], list] = {}
    seen = bytearray(ctx.q)
    for n in range(ctx.q):
        if seen[n]:
            continue
        j = ctx.from_encoding(n)
        orbit = ffield.frobenius_orbit(j)
        for m in orbit:
            seen[m] = 1
        if len(orbit) < ctx.k:
            t = trace_of_j(j).t
        elif table is None or n in special:
            t = trace_of_j(j, n).t
        else:
            t = table(n)
            _require(_cache.publish(traces, (ctx.p, ctx.k, n), t) == t,
                     "the trace table agrees with the stored trace")
        grouped.setdefault((len(orbit), abs(t)), []).append(orbit)
    classes = {cls: tuple(orbits) for cls, orbits in grouped.items()}
    return _cache.publish(found, key, classes)


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
    law = _group_law(E)
    P = law.point(*_random_point(E, rng))
    R = _ec_mul(E.ctx.q + 1, P, law)
    for t in traces:
        S = _ec_mul(t, P, law)
        if R is None or S is None:
            if R is S:
                return True
        elif R[0] == S[0]:
            return True
    return False
