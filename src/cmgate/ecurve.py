"""Elliptic curves over F_{p^k} (p >= 5): models from j-invariants, exact
point counts, Frobenius trace data, supersingularity, and the trace classes
of a field: its Frobenius orbits of j grouped by orbit size and |t|.

A field with log tables gets the trace of every j at once from its trace
table: every fixed model is a twist of one curve y^2 = x^3 + a x + a, whose
character sums over all a form one cyclic correlation over the discrete logs,
computed as a single exact integer product by Kronecker substitution (see
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44 (2009)).  Once trace_classes has swept
a field, the field keeps that table, two bytes per discrete log, and
trace_of_j reads the trace of each orbit that spans the field from it.

Counting is a quadratic-character scan up to NAIVE_THRESHOLD, the one cut
point between the two counts, and baby-step giant-step over the Hasse
interval beyond it, with the usual twist disambiguation: each deterministically
sampled point, on the curve or on its quadratic twist, gives its annihilator
set, the n in the interval with nP = O, from one sweep over the whole
interval, and the sets are intersected until a single group order survives.

The group law behind BSGS runs on plain ints: residue pairs in every prime
field, pairs of discrete logs with Zech additions in F_{p^k}, k >= 2, with
log tables (q <= 2^16), and pairs of power-basis coefficient tuples in
larger extension fields.
"""

from __future__ import annotations

import struct
import sys
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
    Frobenius orbit, under its least encoding.  It is read from the trace
    table that trace_classes kept for the minimal field, if that field was
    swept and j is neither 0 nor 1728, and otherwise counted on the model of
    the least conjugate.  Only the orbits asked for enter the trace store.
    A caller that holds j in its minimal field and knows that encoding
    passes it as key.
    """
    if key is None:
        j = ffield.minimal_field(j)
        key = ffield.orbit_key(j)
    ctx = j.ctx
    traces = _cache.store("trace")
    t = traces.get((ctx.p, ctx.k, key))
    if t is None:
        table = _cache.store("trace_table").get((ctx.p, ctx.k))
        if table is not None and key not in (0, 1728 % ctx.p):
            t = table(key)
        else:
            t = frobenius_data(curve_from_j(ctx.from_encoding(key))).t
        t = _cache.publish(traces, (ctx.p, ctx.k, key), t)
    return FrobeniusData(ctx.q, t)


def _correlate(f, g) -> memoryview:
    """h(l) = sum_i f(i) g(i - l), indices mod n = len(f) = len(g), for
    lists of ints in [0, 256).

    Kronecker substitution makes h one exact integer product: f packed in
    slots of 1 to 4 bytes, wide enough for the largest sum max(f) sum(g),
    times g reversed, with the upper n slots of the product folded onto the
    lower n.  h is a view of the product's bytes, so its slots become int
    objects only as they are read.
    """
    n = len(f)
    bound = max(f) * sum(g)
    size = next((b for b in (1, 2, 3, 4) if bound < 1 << 8 * b), 0)
    _require(size and min(f) >= 0 and min(g) >= 0 and max(f) < 256 and max(g) < 256,
             "every slot holds its sum")
    width = 8 * size
    packed_f, packed_g = bytearray(size * n), bytearray(size * n)
    packed_f[::size] = bytes(f)
    packed_g[::size] = bytes(g[:1] + g[:0:-1])  # slot m holds g(-m)
    product = int.from_bytes(packed_f, "little") * int.from_bytes(packed_g, "little")
    product = (product + (product >> width * n)) & ((1 << width * n) - 1)
    data = product.to_bytes(size * n, "little")
    if size == 3:
        wide = bytearray(4 * n)
        for b in range(3):
            wide[b::4] = data[b::3]
        data, size = wide, 4
    fmt = "BH I"[size - 1]
    if sys.byteorder == "big":  # the slots are little-endian
        data = struct.pack(f"{n}{fmt}", *struct.unpack(f"<{n}{fmt}", data))
    h = memoryview(data).cast(fmt)  # read in place, with no int object per slot
    _require(sum(h) == sum(f) * sum(g), "the correlation keeps the total")
    return h


def _fibres(ctx: FieldCtx) -> tuple[list[int], list[int]]:
    """The fibres of u -> v = (u - 1)^3 / u over the units u, indexed by
    log v, and by q - 1 for v = 0: (G, N), where G[v] is the sum of chi(u)
    over the fibre of v and N[v] its size.

    u - 1 changes only the constant coefficient of u = g^i, and
    log v = 3 log(u - 1) - i; u = 1 alone lands on v = 0.
    """
    p, qm1, exp, log = ctx.p, ctx.qm1, ctx.exp, ctx.log
    signed, count = [0] * ctx.q, [0] * ctx.q
    for i in range(qm1):
        n = exp[i]
        m = n - 1 if n % p else n + p - 1  # u - 1
        s = (3 * log[m] - i) % qm1 if m else qm1
        count[s] += 1
        signed[s] += -1 if i & 1 else 1
    return signed, count


def _log_1728_minus(ctx: FieldCtx, j: int) -> int:
    """The discrete log of 1728 - j over ctx, a field with log tables, from
    the encoding j != 1728: 1728 - j = -(j - 1728), and j - 1728 changes
    only the constant digit of j."""
    p = ctx.p
    d = j % p
    return (ctx.log[j - d + (d - 1728) % p] + ctx.half) % ctx.qm1


def trace_table(ctx: FieldCtx) -> Callable[[int], int]:
    """The trace over ctx, a field with log tables, of the fixed model of
    every j other than 0 and 1728, as a function of j's encoding.

    For w = 1728 - j and a = 27j / (4w), E_a: y^2 = x^3 + a x + a has
    j-invariant j (a -> j maps F_q minus {0, -27/4} onto F_q minus
    {0, 1728}), and the fixed model (3jw, 2jw^2) is its twist by
    lambda = 2w/3, so t_j = chi(lambda) t_a (Silverman, AEC X.5).  With
    u = x + 1, x^3 + a x + a = u (v + a) for v = (u - 1)^3 / u, so
    t_a = -chi(-1) - sum_v G(v) chi(v + a), G as in _fibres, in [-3, 3].
    For a = g^l and v = g^i, chi(v + a) = (-1)^l (tau(i - l) - 1), where
    tau(m) = chi(1 + g^m) + 1 is 0, 1 or 2: one _correlate of G + 3 with tau
    over the logs, P(l) = sum_i (G(g^i) + 3) tau(i - l), each at most 6q,
    gives t_a = -chi(-1) - (-1)^l (P(l) + G(0) - 3 sum(tau) - sum_i G(g^i)).

    The fibres are checked by their sums, sum N = q - 1 and sum G = 0, and
    every entry against the Hasse bound and the 2-torsion: the points with
    y = 0 are the N(-a) roots of x^3 + a x + a and the others pair up, so
    q - t_a = N(-a) mod 2.  Mod 2, P(l) = G(-a) + 3 = N(-a) + 1, as tau is
    odd only at the log of -1, so the parity check sees every odd error in a
    slot of the product.
    """
    p, q, qm1, half, exp, log = ctx.p, ctx.q, ctx.qm1, ctx.half, ctx.exp, ctx.log
    signed, count = _fibres(ctx)
    _require(sum(count) == qm1 and sum(signed) == 0, "the fibres partition the units")
    # 1 + g^m changes only the constant coefficient of g^m
    tau = [2 - 2 * (log[y] & 1) if y else 1
           for y in [n + 1 if n % p != p - 1 else n + 1 - p for n in exp[:qm1]]]
    units = signed[:qm1]
    base = signed[qm1] - 3 * sum(tau) - sum(units)
    correlated = _correlate([s + 3 for s in units], tau)
    del signed, tau, units
    chi_minus_1 = -1 if half & 1 else 1
    traces = [-chi_minus_1 - (-c - base if l & 1 else c + base)
              for l, c in enumerate(correlated)]
    del correlated
    hasse = 4 * q
    _require(all(t * t <= hasse for t in traces), "a tabled trace breaks the Hasse bound")
    _require(all((q - t - count[(l + half) % qm1]) % 2 == 0 for l, t in enumerate(traces)),
             "a tabled count breaks the 2-torsion parity")
    del count
    # two bytes a trace: the Hasse bound keeps |t| far below 2^15
    traces = memoryview(struct.pack(f"{qm1}h", *traces)).cast("h")
    log_27_4 = log[27 % p] - log[4]
    log6 = log[2] + log[3]  # the parity of log(2/3)

    def trace(j: int) -> int:
        lw = _log_1728_minus(ctx, j)
        t = traces[(log_27_4 + log[j] - lw) % qm1]
        return -t if (log6 + lw) & 1 else t

    return trace


def trace_classes(ctx: FieldCtx) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """The Frobenius orbits of ctx grouped by (d, |t|): d is the orbit size,
    the degree of its field of definition, and t the trace of the fixed model
    over F_{p^d}.

    Each orbit is the ffield.frobenius_orbit of its least encoding: that
    encoding first, then its conjugates in Frobenius order; the walk marks
    every conjugate seen, so orbits ascend by least encoding.  With
    log tables, the orbits that span ctx read their traces from one
    trace_table, which must agree with every trace the store already holds
    for them; j = 0, 1728, orbits of proper subfields and fields without
    tables take trace_of_j.  The table is then kept in the trace_table
    store, keyed (p, k), for trace_of_j; no orbit enters the trace store.
    Cached per field in a store of its own that no configuration reaches:
    traces do not depend on the modular-polynomial data.
    """
    key = (ctx.p, ctx.k)
    found = _cache.store("trace_classes")
    classes = found.get(key)
    if classes is not None:
        return classes
    table = trace_table(ctx) if ctx.log is not None else None
    special = {0, 1728 % ctx.p}
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
            _require(traces.get((ctx.p, ctx.k, n), t) == t,
                     "the trace table agrees with the stored trace")
        grouped.setdefault((len(orbit), abs(t)), []).append(orbit)
    classes = {cls: tuple(orbits) for cls, orbits in grouped.items()}
    if table is not None:
        _cache.publish(_cache.store("trace_table"), key, table)
    return _cache.publish(found, key, classes)


def is_supersingular_j(j: FieldElement) -> bool:
    return trace_of_j(j).t % j.ctx.p == 0
