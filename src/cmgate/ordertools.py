"""Cyclotomic polynomials and the Galois structure of cyclotomic towers.

Cyclotomic polynomials are built over the integers by exact recursive
division and only then reduced into a field context, so no intermediate
modular division can go wrong.
"""

from __future__ import annotations

from math import gcd

from . import _cache
from .errors import EqualPrimes, IndexDivisibleByP, _require
from .ffield import FieldCtx
from .polyring import UniPoly
from ._numutil import factorize, is_prime


def _int_poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        _require(num[-1] % den[-1] == 0, "cyclotomic division must be exact")
        c = num[-1] // den[-1]
        shift = len(num) - len(den)
        out[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    _require(not any(num), "cyclotomic division must leave no remainder")
    return out


def cyclotomic_int(n: int) -> list[int]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    cyclos = _cache.store("cyclo")
    cached = cyclos.get(n)
    if cached is not None:
        return cached
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # T^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_int(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for jj, b in enumerate(phi_d):
                        new[i + jj] += a * b
            den = new
    return _cache.publish(cyclos, n, _int_poly_divexact(num, den))


def cyclotomic_polynomial(n: int, ctx: FieldCtx) -> UniPoly:
    """Psi_n reduced into the given context; requires gcd(n, p) = 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n % ctx.p == 0:
        raise IndexDivisibleByP(f"index {n} shares the characteristic {ctx.p}")
    return UniPoly.from_ints(ctx, cyclotomic_int(n))


# ---------------------------------------------------------------------------
# Galois structure of the cyclotomic towers
# ---------------------------------------------------------------------------

def multiplicative_order_mod(a: int, modulus: int) -> int:
    if gcd(a, modulus) != 1:
        raise ValueError("order undefined for non-units")
    group = 1
    for prime, e in factorize(modulus).items():
        group *= (prime - 1) * prime ** (e - 1)
    order = group
    for prime, e in factorize(group).items():
        for _ in range(e):
            if pow(a, order // prime, modulus) == 1:
                order //= prime
            else:
                break
    return order


class GaloisThresholdReport:
    """Degrees [F_p(mu_{l^m}) : F_p] for m = 1..m_max and the index past
    which every step of the tower multiplies the degree by exactly l."""

    __slots__ = ("ell", "p", "threshold", "degrees")

    def __init__(self, ell, p, threshold, degrees):
        self.ell = ell
        self.p = p
        self.threshold = threshold
        self.degrees = degrees

    def as_dict(self):
        return {
            "ell": self.ell,
            "p": self.p,
            "threshold": self.threshold,
            "degrees": list(self.degrees),
        }

    def __repr__(self):
        return (
            f"GaloisThresholdReport(ell={self.ell}, p={self.p}, "
            f"threshold={self.threshold}, degrees={list(self.degrees)})"
        )


def stabilization_threshold(ell: int, p: int, m_max: int) -> GaloisThresholdReport:
    """Tower degrees and the stabilization index of F_p(mu_{l^m}).

    The degree at step m is the multiplicative order of p mod l^m; once a
    step multiplies the order by l, every later step does too, and the
    threshold is computed by the lifting-the-exponent valuation so it is
    valid even when m_max stops short of the stable regime.
    """
    if ell == p:
        raise EqualPrimes("the tower prime must differ from the characteristic")
    if not (is_prime(ell) and is_prime(p)):
        raise ValueError("both arguments must be prime")
    degrees = [multiplicative_order_mod(p, ell**m) for m in range(1, m_max + 1)]
    if ell == 2:
        if p % 4 == 1:
            threshold = _valuation(p - 1, 2)
        else:
            threshold = _valuation(p + 1, 2) + 1
    else:
        e1 = multiplicative_order_mod(p, ell)
        threshold = _valuation(pow(p, e1) - 1, ell)
    # past the threshold every step multiplies by ell; the step into the
    # threshold does not (that is its minimality), while below it the
    # 2-adic tower may jump once at m = 1 before flattening out
    for m in range(1, m_max):
        ratio = degrees[m] // degrees[m - 1]
        _require(degrees[m] % degrees[m - 1] == 0 and ratio in (1, ell),
                 "each tower step must multiply the degree by 1 or ell")
        if m >= threshold:
            _require(ratio == ell, "tower must be stable past the threshold")
        if m == threshold - 1 and threshold > 1:
            _require(ratio == 1, "threshold must be minimal")
    return GaloisThresholdReport(ell, p, threshold, degrees)


def _valuation(n: int, prime: int) -> int:
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v
