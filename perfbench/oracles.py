"""Reference mathematics for checking cmgate's outputs.

Nothing here imports cmgate: every value is computed by this file's own
integer and polynomial code, so a fault in the library cannot hide behind
the same fault in its check.  The only shared inputs are vendored data
files (the integer Hilbert class polynomials and the modular polynomials)
and the field conventions that cmgate documents:

* the modulus of F_{p^k} is the monic irreducible polynomial of degree k
  whose coefficient vector, read as a base-p integer with the top
  coefficient most significant, is smallest;
* an element sum c_i g^i of F_{p^k} has the encoding sum c_i p^i.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import gcd, isqrt

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "cmgate", "data")


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def valuation(n: int, ell: int) -> int:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1, by quadratic reciprocity."""
    if n == 1:
        return 1
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
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


def mobius(n: int) -> int:
    out = 1
    for f in prime_factors(n):
        if n % (f * f) == 0:
            return 0
        out = -out
    return out


def exact_degree_count(p: int, k: int) -> int:
    """Elements of F_{p^k} whose minimal field is F_{p^k}."""
    return sum(mobius(k // d) * p**d for d in range(1, k + 1) if k % d == 0)


def class_number(D: int) -> int:
    """h(D) by a scan of the reduced primitive forms (a, b, c), b^2-4ac = D."""
    h, a = 0, 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0) or gcd(gcd(a, b), c) != 1:
                continue
            h += 1
        a += 1
    return h


def root_field_degree(D: int, p: int) -> int | None:
    """Least m with 4 p^m = t^2 + w^2 |D| (t, w >= 1, p not dividing t),
    searched up to m = h(D); None when p is not split or divides D."""
    if D % p == 0 or kronecker(D, p) != 1:
        return None
    for m in range(1, class_number(D) + 1):
        n = 4 * p**m
        w = 1
        while w * w * -D < n:
            t2 = n - w * w * -D
            t = isqrt(t2)
            if t * t == t2 and t % p:
                return m
            w += 1
    return None


@lru_cache(maxsize=None)
def hilbert_table() -> dict[int, list[int]]:
    """The vendored integer H_D (constant term first)."""
    out = {}
    with open(os.path.join(DATA_DIR, "hilbert_small.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                d, cs = line.split(":")
                out[int(d)] = [int(c) for c in cs.split()]
    return out


@lru_cache(maxsize=None)
def modular_terms(ell: int) -> tuple[tuple[int, int, int], ...]:
    """(i, j, c) with Phi_ell = sum c X^i Y^j, from the vendored data."""
    out = []
    with open(os.path.join(DATA_DIR, f"phi_{ell}.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                i, j, c = line.split()
                out.append((int(i), int(j), int(c)))
    return tuple(out)


def phi_value(ell: int, x: int, y: int, p: int) -> int:
    return sum(c * pow(x, i, p) * pow(y, j, p) for i, j, c in modular_terms(ell)) % p


# ---------------------------------------------------------------------------
# elliptic curves over prime fields
# ---------------------------------------------------------------------------

def trace_over_prime(a: int, b: int, p: int) -> int:
    """Frobenius trace of y^2 = x^3 + a x + b over F_p, from Legendre symbols."""
    squares = bytearray(p)
    for z in range(1, p):
        squares[z * z % p] = 1
    total = 0
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        if r:
            total += 1 if squares[r] else -1
    return -total


def trace_over_extension(t1: int, p: int, k: int) -> int:
    """t_k from t_1 by t_k = t_1 t_{k-1} - p t_{k-2}, with t_0 = 2."""
    prev, cur = 2, t1
    for _ in range(k - 1):
        prev, cur = cur, t1 * cur - p * prev
    return cur


# ---------------------------------------------------------------------------
# F_{p^k} in the documented power basis
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a: list[int], m: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
        _trim(a)
    return a


def _polymulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _polymod(out, m, p)


def _polypowmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result, base = [1], _polymod(a, m, p)
    while e:
        if e & 1:
            result = _polymulmod(result, base, m, p)
        base = _polymulmod(base, base, m, p)
        e >>= 1
    return result


def _polygcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _polymod(a, b, p)
    return a


def _irreducible(f: list[int], p: int) -> bool:
    k = len(f) - 1
    xp = [0, 1]
    for _ in range(k // 2):
        xp = _polypowmod(xp, p, f, p)
        diff = list(xp) + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_polygcd(f, diff, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def field_modulus(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    for n in range(p**k):
        cand = [(n // p**i) % p for i in range(k)] + [1]
        if _irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {k} over F_{p}")


class Field:
    """F_{p^k} with elements as coefficient lists, constant first."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = list(field_modulus(p, k))

    def decode(self, enc: int) -> list[int]:
        return _trim([(enc // self.p**i) % self.p for i in range(self.k)])

    def encode(self, a: list[int]) -> int:
        return sum(c * self.p**i for i, c in enumerate(a))

    def add(self, a: list[int], b: list[int]) -> list[int]:
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return _trim([(x + y) % self.p for x, y in zip(a, b)])

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        return _polymulmod(a, b, self.modulus, self.p)

    def pow(self, a: list[int], e: int) -> list[int]:
        return _polypowmod(a, e, self.modulus, self.p)

    def const(self, c: int) -> list[int]:
        return _trim([c % self.p])

    def poly_eval(self, coeffs: list[int], x: list[int]) -> list[int]:
        """Integer polynomial (constant first) evaluated at x."""
        acc: list[int] = []
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.const(c))
        return acc

    def order(self, a: list[int]) -> int:
        """Multiplicative order of a nonzero element."""
        n = self.q - 1
        for f in prime_factors(self.q - 1):
            while n % f == 0 and self.pow(a, n // f) == [1]:
                n //= f
        return n


def element_degree(p: int, k: int, enc: int) -> int:
    """Degree of the minimal field of an element of F_{p^k}."""
    F = Field(p, k)
    a = F.decode(enc)
    for d in range(1, k + 1):
        if k % d == 0 and F.pow(a, p**d) == a:
            return d
    return k
