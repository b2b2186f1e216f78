"""Deterministic arithmetic in F_{p^k} and coherent embeddings between subfields.

The algebraic closure of F_p is modelled as the directed union of contexts
FieldCtx(p, k).  Two conventions make every run reproducible:

* the defining modulus of F_{p^k} is the monic irreducible polynomial of
  degree k whose coefficient vector, read as a base-p integer with the
  highest-degree coefficient most significant, is smallest;
* embeddings F_{p^k} -> F_{p^m} are induced by a system of norm-compatible
  distinguished multiplicative generators (one per degree, found by a
  deterministic search), so that embeddings compose along towers.

An element's encoding is sum c_i p^i over its power-basis coefficients c_i.
How an element is stored depends on the size q = p^k of its field:

* q <= _TABLE_MAX (2^16): the element is its encoding.  The context holds
  exp/log tables for the smallest primitive element g and, for k >= 2, the
  Zech table Z[n] = log(1 + g^n), so that multiplication, division, powers
  and Frobenius are one exp/log lookup and addition is one Zech lookup
  (g^a + g^b = g^(a + Z[b - a])).  In a prime field the encoding is the
  residue and + - * are plain modular integer operations.
* q > _TABLE_MAX: the element is its coefficient tuple in the power basis,
  with schoolbook multiplication reduced by the modulus.  Inversion and the
  quadratic character go through the norm N(a) = a^r, r = (q - 1)/(p - 1):
  a^(r - 1) is the product of the conjugates a^(p^i), 0 < i < k, each one
  Frobenius matrix away from the last, and a^-1 = a^(r - 1) / N(a) with
  N(a) in F_p (Itoh and Tsujii, Inf. Comput. 78 (1988)).

`.coeffs` is available in both representations; for encoded elements it is
derived on each read.

Characteristic 2 and 3 are rejected: the curve machinery downstream needs
short Weierstrass models.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from . import _cache
from .errors import (
    CharTooSmall,
    CompositeP,
    ContextMismatch,
    DivisionByZero,
    InternalInvariant,
    NotASubfield,
    SizeExceeded,
    ZeroElement,
    _require,
)
from ._numutil import factorize, is_prime

#: the largest p^k for which a context is built or a field enumerated
SIZE_BOUND = 1 << 26
_TABLE_MAX = 1 << 16


# ---------------------------------------------------------------------------
# bootstrap polynomial kernels over F_p (coefficients as plain int lists,
# constant term first) -- used for modulus search before FieldCtx exists
# ---------------------------------------------------------------------------

def _ip_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _ip_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b, each coefficient reduced mod p once."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    return _ip_trim([c % p for c in prod])


def _ip_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ip_trim(out)


def _ip_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by a trimmed nonzero b; entries of a lie in
    [0, p).  The remainder's entries are reduced once, at the end."""
    r = a[:]
    db = len(b) - 1
    if len(r) <= db:
        return [], _ip_trim(r)
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    q = [0] * (len(r) - db)
    for shift in range(len(r) - 1 - db, -1, -1):
        c = r.pop() * inv % p  # the top entry, cancelled by c * b
        if c:
            q[shift] = c
            for i, bi in enumerate(low, shift):
                r[i] -= c * bi
    return _ip_trim(q), _ip_trim([c % p for c in r])


def _ip_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m, left to right, so that a small base (T in x^q) costs little."""
    if not e:
        return [1]
    base = _ip_divmod(a, m, p)[1]
    result = base
    for bit in bin(e)[3:]:
        result = _ip_divmod(_ip_mul(result, result, p), m, p)[1]
        if bit == "1":
            result = _ip_divmod(_ip_mul(result, base, p), m, p)[1]
    return result


def _ip_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a = _ip_divmod(a, b, p)[1]
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p."""
    k = len(f) - 1
    if k < 1:
        return False
    if k >= 2:
        for a in range(p):
            acc = 0
            for c in reversed(f):
                acc = (acc * a + c) % p
            if acc == 0:
                return False
    x = [0, 1]
    if _ip_sub(_ip_powmod(x, p**k, f, p), x, p):
        return False
    for r in factorize(k):
        d = _ip_sub(_ip_powmod(x, p ** (k // r), f, p), x, p)
        if _ip_gcd(d, f[:], p) != [1]:
            return False
    return True


def _encode(coeffs, p: int) -> int:
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _decode(n: int, p: int, k: int) -> tuple[int, ...]:
    v = []
    for _ in range(k):
        n, r = divmod(n, p)
        v.append(r)
    return tuple(v)


def zech_add(zech: list[int], qm1: int, u: int, v: int) -> int:
    """log(g^u + g^v) through the Zech table of a field with q - 1 = qm1;
    -1 stands for the log of 0."""
    if u < 0:
        return v
    if v < 0:
        return u
    z = zech[(v - u) % qm1]
    return (u + z) % qm1 if z >= 0 else -1


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """The canonical model of F_{p^k}.  Use make_field; do not construct directly.

    This class serves fields with q > _TABLE_MAX, whose elements are
    power-basis tuples; _TableCtx serves the smaller ones.  Immutable once
    built: the factors of q - 1 and the Frobenius matrix are computed here,
    and results derived later (distinguished generators, embeddings) live in
    `_cache` stores.
    """

    __slots__ = ("p", "k", "q", "modulus", "_red", "qm1_factors", "frob_rows")

    # discrete-log tables; only _TableCtx has them
    exp = log = None

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        # reduction rows: T^(k+i) mod modulus for i = 0..k-2
        rows = []
        cur = [(-c) % p for c in modulus[:-1]]  # T^k
        rows.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for idx in range(k):
                    nxt[idx] = (nxt[idx] - top * modulus[idx]) % p
            cur = nxt
            rows.append(tuple(cur))
        self._red = tuple(rows)
        self.qm1_factors = factorize(self.q - 1)
        # the matrix of x -> x^p in the power basis: row i = (T^i)^p
        self.frob_rows = tuple(self._pow_coeffs(_decode(p**i, p, k), p) for i in range(k))

    # -- element constructors -------------------------------------------------

    def zero(self) -> "FieldElement":
        return _PolyElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, c: int) -> "FieldElement":
        v = [0] * self.k
        v[0] = c % self.p
        return _PolyElement(self, tuple(v))

    def from_coeffs(self, coeffs) -> "FieldElement":
        cs = [c % self.p for c in coeffs]
        if len(cs) != self.k:
            raise ValueError("coefficient vector has wrong length")
        return self._from_reduced(tuple(cs))

    def from_encoding(self, n: int) -> "FieldElement":
        return _PolyElement(self, _decode(n, self.p, self.k))

    def gen(self) -> "FieldElement":
        """The power-basis generator (the class of T); k >= 2 only."""
        if self.k == 1:
            raise ValueError("prime field has no power-basis generator")
        return self.from_encoding(self.p)

    def _from_reduced(self, coeffs: tuple[int, ...]) -> "FieldElement":
        """The element with these coefficients, each already in [0, p)."""
        return _PolyElement(self, coeffs)

    # -- internals -------------------------------------------------------------

    def _mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = [c % p for c in prod[:k]]
        red = self._red
        for i in range(k, 2 * k - 1):
            hi = prod[i] % p
            if hi:
                row = red[i - k]
                for idx in range(k):
                    out[idx] = (out[idx] + hi * row[idx]) % p
        return tuple(out)

    def _inv_coeffs(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """a^-1 = a^(r - 1) / N(a)."""
        if not any(a):
            raise DivisionByZero("inverse of zero")
        conj, norm = self._norm_parts(a)
        p = self.p
        c = pow(norm, -1, p)
        return tuple(x * c % p for x in conj)

    def _norm_parts(self, a: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(a^(r - 1), N(a)) for a nonzero a: the product of the conjugates
        a^(p^i), 0 < i < k, and the norm a^r in F_p*."""
        k = self.k
        if k == 1:
            return (1,), a[0]
        conj = b = self._frob_coeffs(a)
        for _ in range(k - 2):
            b = self._frob_coeffs(b)
            conj = self._mul_coeffs(conj, b)
        norm = self._mul_coeffs(a, conj)
        _require(norm[0] and not any(norm[1:]), "the norm of a unit lies in F_p*")
        return conj, norm[0]

    def _frob_coeffs(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """a^p through the Frobenius matrix."""
        out = [0] * self.k
        for ci, row in zip(a, self.frob_rows):
            if ci:
                for idx, r in enumerate(row):
                    out[idx] += ci * r
        p = self.p
        return tuple(c % p for c in out)

    def _pow_coeffs(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = _decode(1, self.p, self.k)
        while e:
            if e & 1:
                result = self._mul_coeffs(result, a)
            e >>= 1
            if e:
                a = self._mul_coeffs(a, a)
        return result

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k})"

    def __reduce__(self):
        return (make_field, (self.p, self.k))


class _TableCtx(FieldCtx):
    """F_{p^k} with q <= _TABLE_MAX: elements are encodings.

    exp[i] = g^i for 0 <= i < 2(q - 1), so a sum of two logs indexes it
    without reduction; log[n] is the discrete log of encoding n (log[0] is
    unused); for k >= 2, zech[n] = log(1 + g^n), or -1 where 1 + g^n = 0.
    half = (q - 1) / 2 is the log of -1.
    """

    __slots__ = ("exp", "log", "zech", "qm1", "half", "_elem", "_zero", "_one")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        super().__init__(p, k, modulus)
        q = self.q
        qm1 = self.qm1 = q - 1
        self.half = qm1 // 2
        # the smallest primitive encoding, found with the power-basis kernels
        one = _decode(1, p, k)
        cofactors = [qm1 // r for r in self.qm1_factors]
        for n in range(2, q):
            g = _decode(n, p, k)
            if all(self._pow_coeffs(g, e) != one for e in cofactors):
                break
        else:
            raise InternalInvariant(f"no primitive element in {self!r}")
        # the powers of g, walked through the table of n -> n g
        times_g = self._times_table(g)
        exp = [0] * (2 * qm1)
        log = [0] * q
        n = 1
        for i in range(qm1):
            exp[i] = n
            log[n] = i
            n = times_g[n]
        _require(n == 1, "g^(q - 1) = 1")
        exp[qm1:] = exp[:qm1]
        self.exp, self.log = exp, log
        if k == 1:
            self.zech = None
            self._elem = _PrimeElement
        else:
            # 1 + g^i changes only the constant coefficient of g^i
            zech = [log[n + 1 if n % p != p - 1 else n + 1 - p] for n in exp[:qm1]]
            zech[self.half] = -1  # 1 + g^half = 1 - 1 = 0
            self.zech = zech
            self._elem = _ZechElement
        self._zero = self._elem(self, 0)
        self._one = self._elem(self, 1)

    def _times_table(self, g: tuple[int, ...]) -> list[int]:
        """The encoding of n g for every encoding n.

        Multiplication by g is F_p-linear on the digits of n.  Split
        n = lo + p^h hi, h = k // 2: the digit vectors of lo g and (p^h hi) g,
        read in base 2p - 1, add without a carry, and two tables reduce the
        low h and the high k - h digits of the sum mod p into an encoding.
        """
        p, k = self.p, self.k
        if k == 1:
            return [n * g[0] % p for n in range(p)]
        base, h = 2 * p - 1, k // 2

        def digit_vectors(shift: int, m: int) -> list[int]:
            out = []
            for n in range(p**m):
                v = self._mul_coeffs(_decode(n * p**shift, p, k), g)
                out.append(sum(c * base**d for d, c in enumerate(v)))
            return out

        def reducer(m: int, scale: int) -> list[int]:
            red = [0]
            for d in range(m):
                red = [r + x % p * scale * p**d for x in range(base) for r in red]
            return red

        lows, highs = digit_vectors(0, h), digit_vectors(h, k - h)
        red_low, red_high, cut = reducer(h, 1), reducer(k - h, p**h), base**h
        return [red_low[s % cut] + red_high[s // cut]
                for u in highs for s in [u + v for v in lows]]

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_int(self, c: int) -> "FieldElement":
        return self._elem(self, c % self.p)

    def from_encoding(self, n: int) -> "FieldElement":
        return self._elem(self, n % self.q)

    def _from_reduced(self, coeffs: tuple[int, ...]) -> "FieldElement":
        return self._elem(self, _encode(coeffs, self.p))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of F_{p^k}; its context fixes the representation.

    _PolyElement holds power-basis coefficients (q > _TABLE_MAX);
    _PrimeElement and _ZechElement hold the encoding n (q <= _TABLE_MAX).
    Elements are immutable and compare equal only within one context.
    """

    __slots__ = ("ctx",)

    def lift(self) -> int:
        """Integer representative; defined for prime-field elements only."""
        cs = self.coeffs
        if any(cs[1:]):
            raise ValueError("element does not lie in the prime field")
        return cs[0]

    def __repr__(self):
        if self.ctx.k == 1:
            return f"F{self.ctx.p}({self.coeffs[0]})"
        return f"F{self.ctx.p}^{self.ctx.k}{list(self.coeffs)}"


class _PolyElement(FieldElement):
    """An element of a field with q > _TABLE_MAX, as a power-basis tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def encoding(self) -> int:
        return _encode(self.coeffs, self.ctx.p)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        if self.ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        p = self.ctx.p
        return _PolyElement(
            self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        if self.ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        p = self.ctx.p
        return _PolyElement(
            self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if self.ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        return _PolyElement(self.ctx, self.ctx._mul_coeffs(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if self.ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        return _PolyElement(
            self.ctx, self.ctx._mul_coeffs(self.coeffs, self.ctx._inv_coeffs(other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        p = self.ctx.p
        return _PolyElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __pow__(self, e: int) -> "FieldElement":
        ctx = self.ctx
        if e < 0:
            return _PolyElement(ctx, ctx._inv_coeffs(ctx._pow_coeffs(self.coeffs, -e)))
        return _PolyElement(ctx, ctx._pow_coeffs(self.coeffs, e))

    def scale(self, c: int) -> "FieldElement":
        p = self.ctx.p
        c %= p
        return _PolyElement(self.ctx, tuple(a * c % p for a in self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.k, self.coeffs))


class _EncodedElement(FieldElement):
    """An element of a field with q <= _TABLE_MAX, stored as its encoding n."""

    __slots__ = ("n",)

    def __init__(self, ctx: _TableCtx, n: int):
        self.ctx = ctx
        self.n = n

    def is_zero(self) -> bool:
        return not self.n

    def encoding(self) -> int:
        return self.n

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _decode(self.n, self.ctx.p, self.ctx.k)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        b = other.n
        if not b:
            raise DivisionByZero("inverse of zero")
        a = self.n
        if not a:
            return self
        log = ctx.log
        return ctx._elem(ctx, ctx.exp[log[a] - log[b] + ctx.qm1])

    def __pow__(self, e: int) -> "FieldElement":
        ctx = self.ctx
        n = self.n
        if not n:
            if e < 0:
                raise DivisionByZero("inverse of zero")
            return self if e else ctx.one()
        return ctx._elem(ctx, ctx.exp[ctx.log[n] * e % ctx.qm1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.n == other.n
        )

    def __hash__(self):
        return hash(self.n)


class _PrimeElement(_EncodedElement):
    """An element of F_p, p <= _TABLE_MAX: n is the residue."""

    __slots__ = ()

    @property
    def coeffs(self) -> tuple[int, ...]:
        return (self.n,)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        return _PrimeElement(ctx, (self.n + other.n) % ctx.p)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        return _PrimeElement(ctx, (self.n - other.n) % ctx.p)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        return _PrimeElement(ctx, self.n * other.n % ctx.p)

    def __neg__(self) -> "FieldElement":
        return _PrimeElement(self.ctx, -self.n % self.ctx.p)

    def scale(self, c: int) -> "FieldElement":
        return _PrimeElement(self.ctx, self.n * c % self.ctx.p)


class _ZechElement(_EncodedElement):
    """An element of F_{p^k}, k >= 2, q <= _TABLE_MAX: arithmetic on logs."""

    __slots__ = ()

    def __add__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        a, b = self.n, other.n
        if not a:
            return other
        if not b:
            return self
        log = ctx.log
        la = log[a]
        z = ctx.zech[(log[b] - la) % ctx.qm1]
        return _ZechElement(ctx, ctx.exp[la + z] if z >= 0 else 0)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        a, b = self.n, other.n
        if not b:
            return self
        log = ctx.log
        lb = log[b] + ctx.half  # log of -b, below 2(q - 1)
        if not a:
            return _ZechElement(ctx, ctx.exp[lb])
        la = log[a]
        z = ctx.zech[(lb - la) % ctx.qm1]
        return _ZechElement(ctx, ctx.exp[la + z] if z >= 0 else 0)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ContextMismatch("elements live in different contexts")
        a, b = self.n, other.n
        if not a:
            return self
        if not b:
            return other
        log = ctx.log
        return _ZechElement(ctx, ctx.exp[log[a] + log[b]])

    def __neg__(self) -> "FieldElement":
        n = self.n
        if not n:
            return self
        ctx = self.ctx
        return _ZechElement(ctx, ctx.exp[ctx.log[n] + ctx.half])

    def scale(self, c: int) -> "FieldElement":
        ctx = self.ctx
        n = self.n
        c %= ctx.p
        if not n or not c:
            return ctx._zero
        log = ctx.log
        return _ZechElement(ctx, ctx.exp[log[n] + log[c]])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def make_field(p: int, k: int) -> FieldCtx:
    """The canonical context for F_{p^k}; idempotent for fixed (p, k).

    A context is published only once fully built, tables included.
    """
    key = (p, k)
    contexts = _cache.store("ctx")
    ctx = contexts.get(key)
    if ctx is not None:
        return ctx
    if p < 2 or not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    if p < 5:
        raise CharTooSmall("characteristic 2 and 3 are not supported")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k > SIZE_BOUND:
        raise SizeExceeded(f"p^k = {p**k} exceeds the size bound {SIZE_BOUND}")
    if k == 1:
        modulus = (0, 1)
    else:
        modulus = None
        for n in range(p**k):
            cand = [*_decode(n, p, k), 1]
            if _is_irreducible(cand, p):
                modulus = tuple(cand)
                break
        _require(modulus is not None, "every degree has an irreducible modulus")
    ctx = (_TableCtx if p**k <= _TABLE_MAX else FieldCtx)(p, k, modulus)
    return _cache.publish(contexts, key, ctx)


def frobenius(x: FieldElement) -> FieldElement:
    """x -> x^p: log times p with tables, else the cached Frobenius matrix."""
    ctx = x.ctx
    if ctx.k == 1:
        return x
    log = ctx.log
    if log is not None:
        n = x.n
        return _ZechElement(ctx, ctx.exp[log[n] * ctx.p % ctx.qm1]) if n else x
    return _PolyElement(ctx, ctx._frob_coeffs(x.coeffs))


def frobenius_orbit(x: FieldElement) -> tuple[int, ...]:
    """The encodings of x, x^p, x^(p^2), ... in its context, in Frobenius
    order, up to the first conjugate that is x again.

    Its length is the degree of F_p(x) and its minimum names the orbit.  With
    log tables the conjugates are exp[log(x) p^i mod (q - 1)] and 0 is its
    own orbit; without them each is one Frobenius matrix away from the last.
    """
    ctx = x.ctx
    if ctx.k == 1:
        return (x.encoding(),)
    log = ctx.log
    if log is not None:
        n = x.n
        if not n:
            return (0,)
        exp, p, qm1 = ctx.exp, ctx.p, ctx.qm1
        orbit = [n]
        u = log[n]
        v = u * p % qm1
        while v != u:
            orbit.append(exp[v])
            v = v * p % qm1
        return tuple(orbit)
    p, coeffs = ctx.p, x.coeffs
    orbit = [_encode(coeffs, p)]
    c = ctx._frob_coeffs(coeffs)
    while c != coeffs:
        orbit.append(_encode(c, p))
        c = ctx._frob_coeffs(c)
    return tuple(orbit)


def multiplicative_order(x: FieldElement) -> int:
    """Least n >= 1 with x^n = 1; divides q - 1."""
    if x.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    ctx = x.ctx
    qm1 = ctx.q - 1
    if ctx.log is not None:
        return qm1 // gcd(qm1, ctx.log[x.n])
    order = qm1
    for prime, mult in ctx.qm1_factors.items():
        for _ in range(mult):
            cand = order // prime
            if (x ** cand) == ctx.one():
                order = cand
            else:
                break
    return order


def enumerate_elements(ctx: FieldCtx) -> Iterator[FieldElement]:
    """All q elements, by ascending base-p encoding."""
    if ctx.q > SIZE_BOUND:
        raise SizeExceeded("enumeration beyond the size bound")
    for n in range(ctx.q):
        yield ctx.from_encoding(n)


# ---------------------------------------------------------------------------
# embeddings: norm-compatible distinguished generators
# ---------------------------------------------------------------------------

def _order_is(x: FieldElement, n: int, factors: dict[int, int]) -> bool:
    if x ** n != x.ctx.one():
        return False
    return all(x ** (n // prime) != x.ctx.one() for prime in factors)


def conjugate_product(ctx: FieldCtx, roots) -> tuple[int, ...]:
    """The product of T - r over the encodings roots of a Galois-stable set
    in ctx, as F_p ints, constant first and monic.  A coefficient outside
    F_p means the set was not Galois-stable: InternalInvariant."""
    poly = [ctx.one()]
    for c in map(ctx.from_encoding, roots):
        nxt = [ctx.zero() for _ in range(len(poly) + 1)]
        for i, a in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + a
            nxt[i] = nxt[i] - a * c
        poly = nxt
    out = tuple(a.encoding() for a in poly)
    if any(c >= ctx.p for c in out):
        raise InternalInvariant(f"a product of T - r left the prime field of {ctx!r}")
    return out


def _minpoly_coeffs(x: FieldElement) -> tuple[int, ...]:
    """Minimal polynomial over F_p (int coefficients, constant first, monic)."""
    return conjugate_product(x.ctx, frobenius_orbit(x))


def distinguished_generator(ctx: FieldCtx) -> FieldElement:
    """The norm-compatible primitive element used to define embeddings.

    For every maximal proper divisor d of k the relative norm power
    xi_k^((q-1)/(p^d-1)) has the same minimal polynomial as xi_d, which
    makes the induced embeddings commute along towers.  Its encoding is
    kept in the "generator" store under (p, k).
    """
    p, k, q = ctx.p, ctx.k, ctx.q
    generators = _cache.store("generator")
    n = generators.get((p, k))
    if n is not None:
        return ctx.from_encoding(n)
    constraints = []
    for r in factorize(k):
        d = k // r
        sub = make_field(p, d)
        constraints.append(
            ((q - 1) // (p**d - 1), _minpoly_coeffs(distinguished_generator(sub)))
        )
    for n in range(1, q):
        x = ctx.from_encoding(n)
        if _order_is(x, q - 1, ctx.qm1_factors) and all(
            _minpoly_coeffs(x ** e) == mp for e, mp in constraints
        ):
            break
    else:
        raise InternalInvariant(f"no compatible generator for {ctx!r}")
    return ctx.from_encoding(_cache.publish(generators, (p, k), n))


def _solve_mod_p(matrix: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """Solve matrix * x = rhs over F_p (row count >= column count)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [matrix[r][:] + [rhs[r] % p] for r in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [v * inv % p for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(vi - f * vr) % p for vi, vr in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    x = [0] * cols
    for row_idx, c in enumerate(piv_cols):
        x[c] = aug[row_idx][cols]
    return x


def _embed_rows(src: FieldCtx, tgt: FieldCtx) -> tuple[tuple[int, ...], ...]:
    """Rows of the embedding matrix: row i = image of src generator^i; kept
    in the "embed" store under (p, src.k, tgt.k)."""
    p = src.p
    embeddings = _cache.store("embed")
    cached = embeddings.get((p, src.k, tgt.k))
    if cached is not None:
        return cached
    if src.k == 1:
        rows = (tuple([1] + [0] * (tgt.k - 1)),)
    else:
        xi_s = distinguished_generator(src)
        xi_t = distinguished_generator(tgt)
        image_xi = xi_t ** ((tgt.q - 1) // (src.q - 1))
        # coordinates of the power-basis generator g in the basis {xi_s^i}
        basis = []
        acc = src.one()
        for _ in range(src.k):
            basis.append(acc.coeffs)
            acc = acc * xi_s
        matrix = [[basis[j][i] for j in range(src.k)] for i in range(src.k)]
        g_coords = _solve_mod_p(matrix, list(src.gen().coeffs), p)
        _require(g_coords is not None, "the generator must lie in the image basis")
        img_g = tgt.zero()
        acc = tgt.one()
        for a in g_coords:
            if a:
                img_g = img_g + acc.scale(a)
            acc = acc * image_xi
        # sanity: the image must kill the source modulus
        check = tgt.zero()
        powg = tgt.one()
        for c in src.modulus:
            if c:
                check = check + powg.scale(c)
            powg = powg * img_g
        _require(check.is_zero(), "embedding image does not satisfy the source modulus")
        rows_l = []
        acc = tgt.one()
        for _ in range(src.k):
            rows_l.append(acc.coeffs)
            acc = acc * img_g
        rows = tuple(rows_l)
    return _cache.publish(embeddings, (p, src.k, tgt.k), rows)


def embed(x: FieldElement, target: FieldCtx) -> FieldElement:
    """Canonical embedding of x into the target context."""
    src = x.ctx
    if src is target:
        return x
    if src.p != target.p or target.k % src.k != 0:
        raise NotASubfield(f"F_{src.p}^{src.k} does not embed into F_{target.p}^{target.k}")
    rows = _embed_rows(src, target)
    p, kt = target.p, target.k
    out = [0] * kt
    for ci, row in zip(x.coeffs, rows):
        if ci:
            for idx in range(kt):
                out[idx] = (out[idx] + ci * row[idx]) % p
    return target._from_reduced(tuple(out))


def element_degree(x: FieldElement) -> int:
    """Degree of F_p(x) over F_p: the length of x's Frobenius orbit."""
    return len(frobenius_orbit(x))


def orbit_key(x: FieldElement) -> int:
    """The least encoding among the Frobenius conjugates of x in its context.

    For x in its minimal field it names x's orbit, which shares the trace,
    the endomorphism ring and the roots of every H_D: conjugate j have
    conjugate fixed models, and H_D has coefficients in F_p.
    """
    return min(frobenius_orbit(x))


def descend(x: FieldElement, target: FieldCtx) -> FieldElement:
    """Inverse of embed for elements that lie in the target subfield."""
    src = x.ctx
    if src is target:
        return x
    if src.p != target.p or src.k % target.k != 0:
        raise NotASubfield("target is not a subfield of the element's context")
    rows = _embed_rows(target, src)
    matrix = [[rows[j][i] for j in range(target.k)] for i in range(src.k)]
    coords = _solve_mod_p(matrix, list(x.coeffs), src.p)
    if coords is None:
        raise NotASubfield("element does not lie in the requested subfield")
    return target._from_reduced(tuple(coords))


def minimal_field(x: FieldElement) -> FieldElement:
    """Represent x in the context of its minimal field of definition."""
    d = element_degree(x)
    if d == x.ctx.k:
        return x
    return descend(x, make_field(x.ctx.p, d))
