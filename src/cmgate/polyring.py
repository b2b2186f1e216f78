"""Polynomial algebra over the ffield contexts.

UniPoly is dense univariate (constant term first); BiPoly is sparse bivariate
keyed by exponent pairs.  Factorization is the classical squarefree /
distinct-degree / equal-degree chain; equal-degree splitting draws its
"random" elements from a deterministic generator keyed by the input, so
every run factors identically.

Callers that need only the roots in the base field (volcano walks) take
rational_roots: per squarefree part, one gcd with T^q - T and the
equal-degree split of that product of linear factors, with no factorization
of the rest.

UniPoly's arithmetic, factoring and root finding run in a kernel: F_q[T] on
plain lists, picked by the context (see kernel).  Every prime field computes
on residues mod p through ffield's table-free F_p kernels; F_{p^k} with
k >= 2 and log tables (q <= 2^16) on discrete logs with Zech additions;
larger extension fields on power-basis tuples, a polynomial product being
one integer product.  A polynomial is converted once on entry and once on
exit.

Bivariate factorization is deliberately not implemented; the only decision
offered is is_absolutely_irreducible, which combines exact pattern rules
(lines, binomials, monomials) with a point-counting test for total degree
up to 3.
"""

from __future__ import annotations

from math import gcd, lcm

from . import ffield
from .errors import (
    ConstantPolynomial,
    ContextMismatch,
    InternalInvariant,
    SizeExceeded,
    UnsupportedCurveDegree,
    ZeroPolynomial,
)
from .ffield import FieldCtx, FieldElement, embed, make_field, zech_add
from ._numutil import crc_rng


class UniPoly:
    """Dense univariate polynomial; coeffs constant-first, trailing zeros trimmed."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "UniPoly":
        return cls(ctx, [ctx.from_int(c) for c in ints])

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, [ctx.one()])

    @classmethod
    def x(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, [ctx.zero(), ctx.one()])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        K = kernel(self.ctx)
        return K.to_poly(K.monic(K.to_list(self)))

    def _check(self, other: "UniPoly"):
        if self.ctx is not other.ctx:
            raise ContextMismatch("polynomials live in different contexts")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self - -other

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        K = kernel(self.ctx)
        return K.to_poly(K.sub(K.to_list(self), K.to_list(other)))

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        K = kernel(self.ctx)
        return K.to_poly(K.mul(K.to_list(self), K.to_list(other)))

    def __pow__(self, e: int) -> "UniPoly":
        """self^e (e >= 0) by square-and-multiply."""
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def pth_power(self) -> "UniPoly":
        """self^p: in characteristic p, (sum c_i T^i)^p = sum c_i^p T^(ip)."""
        ctx = self.ctx
        p = ctx.p
        out = [ctx.zero()] * (p * self.degree() + 1)
        for i, c in enumerate(self.coeffs):
            out[i * p] = ffield.frobenius(c)
        return UniPoly(ctx, out)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        K = kernel(self.ctx)
        quo, rem = K.divmod(K.to_list(self), K.to_list(other))
        return K.to_poly(quo), K.to_poly(rem)

    def divides(self, other: "UniPoly") -> bool:
        """Whether self divides other (self nonzero)."""
        return other.divmod(self)[1].is_zero()

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """The monic gcd; zero only when both are zero."""
        self._check(other)
        K = kernel(self.ctx)
        return K.to_poly(K.gcd(K.to_list(self), K.to_list(other)))

    def derivative(self) -> "UniPoly":
        K = kernel(self.ctx)
        return K.to_poly(K.derivative(K.to_list(self)))

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = x.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + (c if c.ctx is x.ctx else embed(c, x.ctx))
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner), both over the same context."""
        self._check(inner)
        acc = UniPoly.zero(self.ctx)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly(self.ctx, [c])
        return acc

    def lift_to(self, target: FieldCtx) -> "UniPoly":
        if target is self.ctx:
            return self
        return UniPoly(target, [embed(c, target) for c in self.coeffs])

    def key(self):
        """Deterministic sort key: degree, then coefficient-lex from the top."""
        return (self.degree(), tuple(c.encoding() for c in reversed(self.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"{list(c.coeffs)}*T^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# kernels: F_q[T] on plain lists, one representation per kind of context
# ---------------------------------------------------------------------------
#
# A kernel polynomial is a list of the kernel's scalars, constant term first,
# with no trailing zero scalar, so that len(a) - 1 is its degree.  to_list and
# to_poly convert from and to UniPoly; UniPoly's arithmetic and the algorithms
# below (squarefree parts, distinct-degree and equal-degree splits, rational
# roots) are written once against the kernel methods and convert only on
# entry and exit.

def _trim(a: list, zero) -> list:
    while a and a[-1] == zero:
        a.pop()
    return a


class _Kernel:
    """What the kernels share: the conversions, and gcd and powers for a
    kernel that does not tune its own."""

    __slots__ = ()

    def to_list(self, f: UniPoly) -> list:
        scalar = self.scalar
        return [scalar(c) for c in f.coeffs]

    def to_poly(self, a: list) -> UniPoly:
        elem = self.elem
        return UniPoly(self.ctx, [elem(c) for c in a])

    def monic(self, a: list) -> list:
        return self.divmod(a, a[-1:])[0]

    def gcd(self, a: list, b: list) -> list:
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a) if a else a

    def powmod(self, a: list, e: int, m: list) -> list:
        """a^e mod m, left to right, so that a small base (T in x^q) costs little."""
        if not e:
            return [self.one]
        base = result = self.divmod(a, m)[1]
        for bit in bin(e)[3:]:
            result = self.divmod(self.mul(result, result), m)[1]
            if bit == "1":
                result = self.divmod(self.mul(result, base), m)[1]
        return result


class _Residues(_Kernel):
    """F_p[T] for every prime field: a scalar is the residue in [0, p).

    Products, division, gcd and powers are ffield's table-free F_p kernels.
    """

    __slots__ = ("ctx", "p")
    zero, one = 0, 1

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p

    def scalar(self, x: FieldElement) -> int:
        return x.encoding()

    def elem(self, c: int) -> FieldElement:
        return self.ctx.from_int(c)

    def encoding(self, c: int) -> int:
        return c

    def from_encoding(self, n: int) -> int:
        return n

    def neg(self, c: int) -> int:
        return -c % self.p

    def sub(self, a: list[int], b: list[int]) -> list[int]:
        return ffield._ip_sub(a, b, self.p)

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        return ffield._ip_mul(a, b, self.p)

    def divmod(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        return ffield._ip_divmod(a, b, self.p)

    def gcd(self, a: list[int], b: list[int]) -> list[int]:
        return ffield._ip_gcd(a, b, self.p)

    def powmod(self, a: list[int], e: int, m: list[int]) -> list[int]:
        return ffield._ip_powmod(a, e, m, self.p)

    def derivative(self, a: list[int]) -> list[int]:
        p = self.p
        return _trim([i * c % p for i, c in enumerate(a)][1:], 0)

    def pth_root(self, a: list[int]) -> list[int]:
        return a[:: self.p]

    def evaluate_rows(self, rows, x: int) -> list[int]:
        """[row(x) for row in rows], each row a coefficient list."""
        p = self.p
        out = []
        for row in rows:
            acc = 0
            for c in reversed(row):
                acc = (acc * x + c) % p
            out.append(acc)
        return _trim(out, 0)


class _Logs(_Kernel):
    """F_q[T] for k >= 2 with log tables: a scalar is its discrete log, -1 for 0.

    A product adds logs; g^c + g^u = g^(c + Z[u - c]) is one Zech lookup,
    and -g^u = g^(u + half).
    """

    __slots__ = ("ctx", "p", "exp", "log", "zech", "qm1", "half")
    zero, one = -1, 0

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p
        self.exp, self.log, self.zech = ctx.exp, ctx.log, ctx.zech
        self.qm1, self.half = ctx.qm1, ctx.half

    def scalar(self, x: FieldElement) -> int:
        n = x.n
        return self.log[n] if n else -1

    def elem(self, c: int) -> FieldElement:
        ctx = self.ctx
        return ctx._elem(ctx, self.exp[c]) if c >= 0 else ctx.zero()

    def encoding(self, c: int) -> int:
        return self.exp[c] if c >= 0 else 0

    def from_encoding(self, n: int) -> int:
        return self.log[n] if n else -1

    def neg(self, c: int) -> int:
        return (c + self.half) % self.qm1 if c >= 0 else -1

    def sub(self, a: list[int], b: list[int]) -> list[int]:
        zech, qm1, half = self.zech, self.qm1, self.half
        out = a + [-1] * (len(b) - len(a))
        for j, u in enumerate(b):
            if u >= 0:
                out[j] = zech_add(zech, qm1, out[j], (u + half) % qm1)
        return _trim(out, -1)

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        if not a or not b:
            return []
        zech, qm1 = self.zech, self.qm1
        r = [-1] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai < 0:
                continue
            for j, bj in enumerate(b, i):
                if bj < 0:
                    continue
                c = r[j]
                if c < 0:
                    r[j] = (ai + bj) % qm1
                else:
                    z = zech[(ai + bj - c) % qm1]
                    r[j] = (c + z) % qm1 if z >= 0 else -1
        return _trim(r, -1)

    def _reducer(self, b: list[int]) -> tuple:
        """(deg b, log of its lead, [(i, log of -b_i / lead)] for the
        nonzero b_i below the top): what reducing modulo a nonzero b needs."""
        lb, qm1 = b[-1], self.qm1
        neg = [(i, (bi + self.half - lb) % qm1) for i, bi in enumerate(b[:-1]) if bi >= 0]
        return len(b) - 1, lb, neg

    def _reduce(self, r: list[int], reducer: tuple) -> list[int]:
        """Reduce r in place, top term first; the quotient."""
        zech, qm1 = self.zech, self.qm1
        db, lb, neg = reducer
        quo = [-1] * max(0, len(r) - db)
        top = len(r) - 1
        while top >= db:
            t = r.pop()
            shift = top - db
            top -= 1
            if t < 0:
                continue
            quo[shift] = (t - lb) % qm1
            for i, u in neg:
                u += t
                j = shift + i
                c = r[j]
                if c < 0:
                    r[j] = u % qm1
                else:
                    z = zech[(u - c) % qm1]
                    r[j] = (c + z) % qm1 if z >= 0 else -1
        _trim(r, -1)
        return _trim(quo, -1)

    def divmod(self, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
        r = a[:]
        return self._reduce(r, self._reducer(b)), r

    def powmod(self, a: list[int], e: int, m: list[int]) -> list[int]:
        """Left to right, so that a small base (T in x^q) costs little."""
        if not e:
            return [0]
        reducer = self._reducer(m)
        base = a[:]
        self._reduce(base, reducer)
        result = base
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            self._reduce(result, reducer)
            if bit == "1":
                result = self.mul(result, base)
                self._reduce(result, reducer)
        return result

    def derivative(self, a: list[int]) -> list[int]:
        log, p, qm1 = self.log, self.p, self.qm1
        out = []
        for i in range(1, len(a)):
            c, r = a[i], i % p
            out.append((c + log[r]) % qm1 if c >= 0 and r else -1)
        return _trim(out, -1)

    def pth_root(self, a: list[int]) -> list[int]:
        # x -> x^(p^(k-1)) inverts Frobenius
        s, qm1 = self.p ** (self.ctx.k - 1), self.qm1
        return [c * s % qm1 if c >= 0 else -1 for c in a[:: self.p]]

    def evaluate_rows(self, rows, x: int) -> list[int]:
        """[row(x) for row in rows], each row a coefficient list (Horner)."""
        if x < 0:
            return _trim([row[0] for row in rows], -1)
        zech, qm1 = self.zech, self.qm1
        out = []
        for row in rows:
            acc = -1
            for c in reversed(row):
                acc = zech_add(zech, qm1, (acc + x) % qm1 if acc >= 0 else -1, c)
            out.append(acc)
        return _trim(out, -1)


class _Coeffs(_Kernel):
    """F_q[T] for k >= 2 above the table cut: a scalar is the power-basis
    tuple, and scalar products go through the context's tuple kernels.

    A polynomial product is one integer product (Kronecker substitution):
    digit s of coefficient i packs at bit w((2k - 1)i + s), with w wide
    enough that no digit of the product carries.  Unpacking folds each
    coefficient once: its digits of degree k and above through the
    context's reduction rows, then every digit mod p.
    """

    __slots__ = ("ctx", "p", "k", "zero", "one")

    def __init__(self, ctx: FieldCtx):
        self.ctx, self.p, self.k = ctx, ctx.p, ctx.k
        self.zero, self.one = (0,) * ctx.k, (1,) + (0,) * (ctx.k - 1)

    def scalar(self, x: FieldElement) -> tuple:
        return x.coeffs

    def elem(self, c: tuple) -> FieldElement:
        return self.ctx._from_reduced(c)

    def encoding(self, c: tuple) -> int:
        return ffield._encode(c, self.p)

    def from_encoding(self, n: int) -> tuple:
        return ffield._decode(n, self.p, self.k)

    def neg(self, c: tuple) -> tuple:
        p = self.p
        return tuple(-x % p for x in c)

    def _packing(self, terms: int) -> tuple[int, list[int]]:
        """(w, the reduction rows packed at w): a w-bit digit holds a sum of
        `terms` products of reduced tuples, folded."""
        w = ((terms + 1) * self.k**2 * self.p**3).bit_length()
        return w, [self._pack([row], w) for row in self.ctx._red]

    def _pack(self, a: list, w: int) -> int:
        n, pad = 0, w * (self.k - 1)
        for c in reversed(a):
            n <<= pad
            for x in reversed(c):
                n = n << w | x
        return n

    def _unpack(self, n: int, w: int, rows: list[int]) -> list:
        """The reduced coefficients of a packed sum of products."""
        k, p, mask, out = self.k, self.p, (1 << w) - 1, []
        while n:
            low, hi = n & ((1 << w * k) - 1), n >> w * k
            for row in rows:
                low += (hi & mask) * row
                hi >>= w
            out.append(tuple([(low >> w * s & mask) % p for s in range(k)]))
            n >>= w * (2 * k - 1)
        return _trim(out, self.zero)

    def sub(self, a: list, b: list) -> list:
        w, rows = self._packing(0)
        return self._unpack(self._pack(a, w) + self._pack([self.neg(c) for c in b], w), w, rows)

    def mul(self, a: list, b: list) -> list:
        w, rows = self._packing(min(len(a), len(b)))
        return self._unpack(self._pack(a, w) * self._pack(b, w), w, rows)

    def divmod(self, a: list, b: list) -> tuple[list, list]:
        (w, rows), db, one = self._packing(len(b)), len(b) - 1, self.one
        slot, inv = w * (2 * self.k - 1), one if b[-1] == one else self.ctx._inv_coeffs(b[-1])
        low, r = self._pack([self.neg(c) for c in b[:-1]], w), self._pack(a, w)
        quo = [self.zero] * max(0, len(a) - db)
        for shift in range(len(a) - 1 - db, -1, -1):
            top = slot * (shift + db)
            t = self._unpack(r >> top, w, rows)  # the top entry, cancelled by c * b
            r &= (1 << top) - 1
            if t:
                c = quo[shift] = t[0] if inv is one else self.ctx._mul_coeffs(t[0], inv)
                r += self._pack([c], w) * low << slot * shift
        return _trim(quo, self.zero), self._unpack(r, w, rows)

    def derivative(self, a: list) -> list:
        p = self.p
        return _trim([tuple(i * x % p for x in c) for i, c in enumerate(a)][1:], self.zero)

    def pth_root(self, a: list) -> list:
        # x -> x^(p^(k-1)) inverts Frobenius
        s, power = self.p ** (self.k - 1), self.ctx._pow_coeffs
        return [power(c, s) for c in a[:: self.p]]

    def evaluate_rows(self, rows, x: tuple) -> list:
        """[row(x) for row in rows], each row a coefficient list: the values
        as one packed sum over i of (column i of the rows) times x^i."""
        n = max(map(len, rows), default=0)
        (w, red), y, values = self._packing(n), self.one, 0
        for i in range(n):
            column = [row[i] if i < len(row) else self.zero for row in rows]
            values += self._pack(column, w) * self._pack([y], w)
            y = self.ctx._mul_coeffs(y, x)
        return self._unpack(values, w, red)


def kernel(ctx: FieldCtx):
    """The list kernel of F_q[T] for this context: residues for every prime
    field, discrete logs for k >= 2 with tables, power-basis tuples otherwise."""
    if ctx.k == 1:
        return _Residues(ctx)
    if ctx.log is not None:
        return _Logs(ctx)
    return _Coeffs(ctx)


# ---------------------------------------------------------------------------
# factorization, on kernel lists
# ---------------------------------------------------------------------------

def _squarefree(K, f: list) -> list[tuple[list, int]]:
    """Monic squarefree parts of a nonzero f with multiplicities.

    Every gcd is monic and so is every exact quotient of monic polynomials,
    so only f itself is normalised.
    """
    f = K.monic(f)
    out = []
    p = K.ctx.p
    e = 1
    while len(f) > 1:
        d = K.derivative(f)
        if not d:
            f = K.pth_root(f)
            e *= p
            continue
        g = K.gcd(f, d)
        w = K.divmod(f, g)[0]
        i = 1
        while len(w) > 1:
            y = K.gcd(w, g)
            z = K.divmod(w, y)[0]
            if len(z) > 1:
                out.append((z, i * e))
            w = y
            g = K.divmod(g, y)[0]
            i += 1
        f = g  # what remains is a p-th power
    return out


def _distinct_degree(K, f: list) -> list[tuple[list, int]]:
    """Split squarefree monic f into products of same-degree irreducibles."""
    q = K.ctx.q
    x = [K.zero, K.one]
    out = []
    h = K.divmod(x, f)[1]
    i = 1
    while len(f) - 1 >= 2 * i:
        h = K.powmod(h, q, f)
        g = K.gcd(f, K.sub(h, x))
        if len(g) > 1:
            out.append((g, i))
            f = K.divmod(f, g)[0]
            h = K.divmod(h, f)[1]
        i += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


#: splitters drawn before _equal_degree_split gives up.  On a valid input a
#: draw fails to split with probability at most 13/25 (two linear factors
#: over F_5, constant draws included), so 64 failures in a row do not happen;
#: the draws are keyed by the input, so the outcome cannot flake either
_EDF_MAX_DRAWS = 64


def _equal_degree_split(K, f: list, d: int) -> list[list]:
    """Cantor-Zassenhaus on a squarefree monic product of degree-d irreducibles.

    Raises InternalInvariant when f is not such a product (an irreducible
    factor of another degree never splits off).
    """
    n = len(f) - 1
    if n == d:
        return [f]
    ctx = K.ctx
    rng = crc_rng("edf", ctx.p, ctx.k, tuple(K.encoding(c) for c in f), d)
    exponent = (ctx.q**d - 1) // 2
    one = [K.one]
    for _ in range(_EDF_MAX_DRAWS):
        a = _trim([K.from_encoding(rng.randrange(ctx.q)) for _ in range(n)], K.zero)
        if len(a) <= 1:
            continue
        s = K.gcd(f, K.sub(K.powmod(a, exponent, f), one))
        if 0 < len(s) - 1 < n:
            return _equal_degree_split(K, s, d) + _equal_degree_split(
                K, K.divmod(f, s)[0], d
            )
    raise InternalInvariant(
        f"no split of a degree-{n} input into degree-{d} factors "
        f"after {_EDF_MAX_DRAWS} draws"
    )


def _linear_part(K, f: list, q: int) -> list:
    """gcd(f, T^q - T): the monic product of T - a over the distinct roots a
    of f in F_q, for a subfield F_q of f's context (non-constant f)."""
    x = [K.zero, K.one]
    return K.gcd(f, K.sub(K.powmod(x, q, f), x))


def _roots_of_linear_part(K, lin: list) -> list:
    """The roots of a monic product of distinct linear factors, as scalars."""
    if len(lin) < 2:
        return []
    return [K.neg(g[0]) for g in _equal_degree_split(K, lin, 1)]


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Monic squarefree parts with multiplicities; product reproduces f/lc."""
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    K = kernel(f.ctx)
    return [(K.to_poly(part), mult) for part, mult in _squarefree(K, K.to_list(f))]


def factor_univariate(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Full factorization into monic irreducibles, deterministically ordered."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    K = kernel(f.ctx)
    out = []
    for part, mult in _squarefree(K, K.to_list(f)):
        for block, d in _distinct_degree(K, part):
            for irr in _equal_degree_split(K, block, d):
                out.append((K.to_poly(irr), mult))
    out.sort(key=lambda pair: pair[0].key())
    return out


def kernel_rational_roots(K, f: list) -> tuple[int, list[FieldElement]]:
    """rational_roots of the kernel list f (nonzero)."""
    q = K.ctx.q
    total = 0
    roots = []
    for part, mult in _squarefree(K, f):
        lin = part if len(part) == 2 else _linear_part(K, part, q)
        total += (len(lin) - 1) * mult
        roots += _roots_of_linear_part(K, lin)
    roots.sort(key=K.encoding)
    return total, [K.elem(r) for r in roots]


def rational_roots(f: UniPoly) -> tuple[int, list[FieldElement]]:
    """(number of roots of f in its own field counted with multiplicity,
    the distinct roots sorted by encoding).

    Each squarefree part contributes gcd(part, T^q - T), whose degree
    times the part's multiplicity adds to the count, and only that product
    of linear factors is split.  This is the first distinct-degree step of
    factor_univariate, without the higher degrees.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    K = kernel(f.ctx)
    return kernel_rational_roots(K, K.to_list(f))


def roots_in(f: UniPoly, k: int) -> list[FieldElement]:
    """Distinct roots of f lying in F_{p^k}, sorted by encoding."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has every root")
    base = f.ctx
    p = base.p
    work_deg = lcm(base.k, k)
    target = make_field(p, k)  # raises SizeExceeded beyond the bound
    work = target if work_deg == k else make_field(p, work_deg)
    if f.degree() < 1:
        return []
    if f.degree() == 1 and work is target:
        c0, c1 = f.coeffs
        return [ffield.embed(-c0 / c1, target)]
    K = kernel(work)
    g = K.to_list(f.lift_to(work))
    roots = [K.elem(r) for r in _roots_of_linear_part(K, _linear_part(K, g, p**k))]
    if work is not target:
        roots = [ffield.descend(r, target) for r in roots]
    roots.sort(key=lambda r: r.encoding())
    return roots


def radical_divides(f: UniPoly, g: UniPoly) -> bool:
    """True iff every monic irreducible factor of f divides g: iff each
    squarefree part of f does, since the parts are pairwise coprime."""
    if f.is_zero():
        raise ZeroPolynomial("hypothesis quantifies over divisors of a nonzero element")
    if g.is_zero():
        return True
    return all(part.divides(g) for part, _ in squarefree_decomposition(f))


# ---------------------------------------------------------------------------
# bivariate polynomials
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse bivariate polynomial: {(i, j): nonzero coefficient}."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms):
        clean = {}
        for (i, j), c in dict(terms).items():
            if isinstance(c, int):
                c = ctx.from_int(c)
            if not c.is_zero():
                clean[(int(i), int(j))] = c
        self.ctx = ctx
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if self.ctx is not other.ctx:
            raise ContextMismatch("polynomials live in different contexts")
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return BiPoly(self.ctx, out)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.ctx is not other.ctx:
            raise ContextMismatch("polynomials live in different contexts")
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                prod = c1 * c2
                s = out.get(key)
                out[key] = prod if s is None else s + prod
        return BiPoly(self.ctx, out)

    def scale(self, c: FieldElement) -> "BiPoly":
        return BiPoly(self.ctx, {k: v * c for k, v in self.terms.items()})

    def swap_variables(self) -> "BiPoly":
        return BiPoly(self.ctx, {(j, i): c for (i, j), c in self.terms.items()})

    def coeffs_in_x(self) -> list[UniPoly]:
        """Representation in F_q[Y][X]: list over X-degree of Y-polynomials."""
        ctx = self.ctx
        dx = self.degree_x()
        rows: list[dict] = [dict() for _ in range(dx + 1)]
        for (i, j), c in self.terms.items():
            rows[i][j] = c
        out = []
        for row in rows:
            dy = max(row, default=-1)
            out.append(
                UniPoly(ctx, [row.get(j, ctx.zero()) for j in range(dy + 1)])
            )
        return out

    def substitute_y(self, y: FieldElement) -> UniPoly:
        """Univariate in X after setting Y = y (y in an extension of ctx)."""
        tgt = y.ctx
        dx = self.degree_x()
        acc = [tgt.zero() for _ in range(dx + 1)]
        ypow: dict[int, FieldElement] = {0: tgt.one()}
        maxj = self.degree_y()
        cur = tgt.one()
        for j in range(1, maxj + 1):
            cur = cur * y
            ypow[j] = cur
        for (i, j), c in self.terms.items():
            acc[i] = acc[i] + embed(c, tgt) * ypow[j]
        return UniPoly(tgt, acc)

    def substitute_x(self, x: FieldElement) -> UniPoly:
        return self.swap_variables().substitute_y(x)

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return self.substitute_y(y).evaluate(x)

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.ctx is other.ctx
            and self.terms == other.terms
        )

    def __repr__(self):
        items = sorted(self.terms.items())
        return "BiPoly(" + ", ".join(f"X^{i}Y^{j}:{list(c.coeffs)}" for (i, j), c in items) + ")"


def eval_bi(f: BiPoly, x: FieldElement, y: FieldElement) -> FieldElement:
    """f(x, y) in the smallest common extension of the three contexts."""
    p = f.ctx.p
    if x.ctx.p != p or y.ctx.p != p:
        raise ContextMismatch("mixed characteristics")
    k = lcm(f.ctx.k, x.ctx.k, y.ctx.k)
    try:
        common = make_field(p, k)
    except SizeExceeded as exc:
        raise ContextMismatch(f"no common extension within the size bound: {exc}")
    return f.evaluate(embed(x, common), embed(y, common))


# ---------------------------------------------------------------------------
# absolute irreducibility
# ---------------------------------------------------------------------------

_COUNTING_MAX_DEGREE = 3


def _strip_monomial(f: BiPoly) -> tuple[int, int, BiPoly]:
    a = min(i for i, _ in f.terms)
    b = min(j for _, j in f.terms)
    if a == 0 and b == 0:
        return 0, 0, f
    return a, b, BiPoly(f.ctx, {(i - a, j - b): c for (i, j), c in f.terms.items()})


def _has_rational_linear_factor(f: BiPoly) -> bool:
    """Scan all monic-normal-form lines over the base field for divisibility."""
    ctx = f.ctx
    # X + bY + c: substitute X = -(bY + c) and check identical vanishing
    for b_enc in range(ctx.q):
        b = ctx.from_encoding(b_enc)
        for c_enc in range(ctx.q):
            c = ctx.from_encoding(c_enc)
            sub = BiPoly(ctx, {(0, 1): -b, (0, 0): -c})
            if _substitute_x_poly(f, sub).is_zero():
                return True
    # Y + c
    for c_enc in range(ctx.q):
        c = ctx.from_encoding(c_enc)
        if f.substitute_y(-c).is_zero():
            return True
    return False


def _substitute_x_poly(f: BiPoly, sub: BiPoly) -> BiPoly:
    """f with X replaced by the given polynomial in Y (Horner in X)."""
    ctx = f.ctx
    rows = f.coeffs_in_x()
    acc = BiPoly(ctx, {})
    for row in reversed(rows):
        acc = acc * sub + BiPoly(ctx, {(0, j): c for j, c in enumerate(row.coeffs)})
    return acc


def _count_points(f: BiPoly, ext_degree: int) -> int:
    """Number of affine F_{q^r}-points on f = 0, by X-sweep and root counting."""
    ctx = f.ctx
    big = make_field(ctx.p, ctx.k * ext_degree)
    f_big = BiPoly(big, {key: embed(c, big) for key, c in f.terms.items()})
    K = kernel(big)
    total = 0
    for enc in range(big.q):
        x = big.from_encoding(enc)
        fy = f_big.substitute_x(x)
        if fy.is_zero():
            total += big.q
            continue
        if fy.degree() < 1:
            continue
        total += len(_linear_part(K, K.to_list(fy), big.q)) - 1
    return total


def is_absolutely_irreducible(f: BiPoly) -> bool:
    """Decide irreducibility over the algebraic closure.

    Exact for: total degree 1, pure monomials, binomials, univariate shapes,
    and any polynomial of total degree <= 3 (pattern rules plus a
    point-counting criterion over a suitable extension).  Raises
    UnsupportedCurveDegree for denser shapes of higher degree.
    """
    if f.is_zero() or f.total_degree() < 1:
        raise ConstantPolynomial("absolute irreducibility needs a nonconstant input")
    d = f.total_degree()
    if d == 1:
        return True
    dx, dy = f.degree_x(), f.degree_y()
    if dx <= 0 or dy <= 0:
        # univariate in one variable: splits over the closure unless linear
        return False
    a, b, core = _strip_monomial(f)
    if a or b:
        # coordinate-line component plus the rest
        return False
    if len(f.terms) == 2:
        (i1, j1), (i2, j2) = f.terms
        return gcd(abs(i1 - i2), abs(j1 - j2)) == 1
    if d > _COUNTING_MAX_DEGREE:
        raise UnsupportedCurveDegree(
            f"no decision procedure for dense curves of total degree {d}"
        )
    if _has_rational_linear_factor(f):
        return False
    # counting criterion: an absolutely irreducible plane curve has about q^r
    # points over F_{q^r}; conjugate-factor products concentrate on the
    # pairwise intersections (no rational components remain at degree <= 3)
    # choose r so that conjugate factors stay irrational (s never divides r
    # for s | d) and the field is large enough for the Weil-bound separation
    r = 1
    proper = [s for s in range(2, d + 1) if d % s == 0]
    while True:
        big_enough = f.ctx.q**r >= 32 * ((d - 1) * (d - 2)) ** 2 + 100
        if big_enough and all(r % s for s in proper):
            break
        r += 1
    return _count_points(f, r) > f.ctx.q**r // 2
