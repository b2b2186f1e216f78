"""Endomorphism rings of ordinary curves via isogeny volcanoes, with a
Hilbert-class-polynomial cross-check; geometric isogeny testing.

The central operation is endo_discriminant.  Provider A walks the
l-isogeny volcanoes below the Frobenius conductor (non-backtracking BFS to
the floor; a vertex strictly above the floor has all l+1 neighbours
rational, the floor has exactly one, and j = 0 / 1728 are always on the
crater since their endomorphism rings are maximal).  A walk reads the
rational neighbours of j from polyring's rational roots of Phi_l(j, T): the
squarefree parts' gcds with T^q - T give the count with multiplicity, and
only those products of linear factors are split.  Phi_l(j, T) is a Horner
evaluation in j of a table of Phi_l mod p, cached per (l, p, k) in the
polyring kernel of j's field, and stays a kernel list through the root
finding.  Provider B locates j among the roots of the class polynomial
built independently in classpoly; disagreement aborts with
ProviderDisagreement, never a guess.
"""

from __future__ import annotations

import os

from . import _cache, ecurve, ffield, polyring
from .errors import (
    InternalInvariant,
    ProviderDisagreement,
    SizeExceeded,
    SupersingularInput,
    UnsupportedLevel,
    _require,
)
from .ffield import FieldCtx, FieldElement, make_field
from .polyring import UniPoly
from ._numutil import factorize


class CMOrder:
    """Imaginary quadratic order: discriminant D = f^2 * d_K."""

    __slots__ = ("d_K", "f", "D")

    def __init__(self, d_K: int, f: int):
        if d_K >= 0 or d_K % 4 not in (0, 1):
            raise ValueError(f"{d_K} is not a negative discriminant")
        if not _is_fundamental(d_K):
            raise ValueError(f"{d_K} is not fundamental")
        if f < 1:
            raise ValueError("conductor must be positive")
        self.d_K = d_K
        self.f = f
        self.D = f * f * d_K

    def __eq__(self, other):
        return isinstance(other, CMOrder) and self.D == other.D

    def __hash__(self):
        return hash(self.D)

    def __repr__(self):
        return f"CMOrder(D={self.D}, d_K={self.d_K}, f={self.f})"


def _is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return _squarefree(-m) and (-m) % 4 in (1, 2)
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def split_discriminant(d: int) -> tuple[int, int]:
    """Write a discriminant d < 0 as f^2 * d_K with d_K fundamental."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    n = -d
    sq = 1
    for prime, e in factorize(n).items():
        sq *= prime ** (e // 2)
    m = -(n // (sq * sq))  # squarefree, negative
    if m % 4 == 1:
        return m, sq
    _require(sq % 2 == 0, "discriminant congruence forces an even square part")
    return 4 * m, sq // 2


# ---------------------------------------------------------------------------
# modular polynomials
# ---------------------------------------------------------------------------

class ModularPolynomial:
    """Integer-coefficient classical modular polynomial of prime level."""

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: dict[tuple[int, int], int]):
        deg = level + 1
        if max(i for i, _ in terms) != deg or max(j for _, j in terms) != deg:
            raise ValueError(f"phi_{level} data has the wrong degree")
        for (i, j), c in terms.items():
            if terms.get((j, i)) != c:
                raise ValueError(f"phi_{level} data is not symmetric at {(i, j)}")
        self.level = level
        self.terms = terms

    def __repr__(self):
        return f"ModularPolynomial(level={self.level}, terms={len(self.terms)})"


def supported_levels() -> tuple[int, ...]:
    """The levels l with a phi_<l>.txt in the data dir, listed once per dir."""
    found = _cache.store("levels")
    levels = found.get(None)
    if levels is not None:
        return levels
    out = []
    try:
        for name in os.listdir(_cache.data_dir()):
            if name.startswith("phi_") and name.endswith(".txt"):
                try:
                    out.append(int(name[4:-4]))
                except ValueError:
                    continue
    except FileNotFoundError:
        pass
    return _cache.publish(found, None, tuple(sorted(out)))


def modular_polynomial(level: int) -> ModularPolynomial:
    """The vendored classical modular polynomial of the given prime level."""
    phis = _cache.store("phi")
    cached = phis.get(level)
    if cached is not None:
        return cached
    path = os.path.join(_cache.data_dir(), f"phi_{level}.txt")
    if not os.path.exists(path):
        raise UnsupportedLevel(
            f"no modular polynomial data for level {level}; add phi_{level}.txt "
            f"to {_cache.data_dir()} to extend the supported set {supported_levels()}"
        )
    terms: dict[tuple[int, int], int] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i_s, j_s, c_s = line.split()
            terms[(int(i_s), int(j_s))] = int(c_s)
    return _cache.publish(phis, level, ModularPolynomial(level, terms))


def _phi_rows(level: int, K) -> tuple:
    """Phi_level mod p in the kernel K of F_{p^k}: row i holds the
    coefficients of T^i as a polynomial in j, one table per (level, p, k)."""
    ctx = K.ctx
    key = (level, ctx.p, ctx.k)
    tables = _cache.store("phi_mod")
    rows = tables.get(key)
    if rows is not None:
        return rows
    deg = level + 1
    ints = [[0] * (deg + 1) for _ in range(deg + 1)]
    for (i, t), c in modular_polynomial(level).terms.items():
        ints[t][i] = c
    rows = tuple(tuple(K.scalar(ctx.from_int(c)) for c in row) for row in ints)
    return _cache.publish(tables, key, rows)


def _phi_at(level: int, j: FieldElement, K) -> list:
    """Phi_level(j, T) as a kernel list, by Horner in j on the cached table."""
    if level == j.ctx.p:
        raise UnsupportedLevel("level equal to the characteristic")
    return K.evaluate_rows(_phi_rows(level, K), K.scalar(j))


def phi_at_j(level: int, j: FieldElement) -> UniPoly:
    """Phi_level(j, T) as a univariate polynomial over j's context."""
    K = polyring.kernel(j.ctx)
    return K.to_poly(_phi_at(level, j, K))


def isogenous_neighbors(
    j: FieldElement, level: int, beyond: list | None = None
) -> list[tuple[FieldElement, int]]:
    """Roots of Phi_level(j, T) with multiplicity, each in its minimal field.

    An irreducible factor whose root field exceeds the size bound raises
    SizeExceeded; given a list `beyond`, its (degree, root-field degree,
    multiplicity) goes there instead and the other factors' roots are kept.
    """
    poly = phi_at_j(level, j)
    out = []
    for factor, mult in polyring.factor_univariate(poly):
        target_deg = j.ctx.k * factor.degree()
        try:
            make_field(j.ctx.p, target_deg)
        except SizeExceeded:
            if beyond is None:
                raise
            beyond.append((factor.degree(), target_deg, mult))
            continue
        for root in polyring.roots_in(factor, target_deg):
            out.append((ffield.minimal_field(root), mult))
    return out


# ---------------------------------------------------------------------------
# volcano navigation
# ---------------------------------------------------------------------------

def _neighbor_data(j: FieldElement, level: int) -> tuple[int, tuple]:
    """(multiplicity-counted rational root total, tuple of distinct roots)."""
    key = (j.ctx.p, j.ctx.k, j.encoding(), level)
    neighbors = _cache.store("neighbors")
    cached = neighbors.get(key)
    if cached is not None:
        return cached
    K = polyring.kernel(j.ctx)
    total, roots = polyring.kernel_rational_roots(K, _phi_at(level, j, K))
    return _cache.publish(neighbors, key, (total, tuple(roots)))


def _rational_neighbor_count(j: FieldElement, level: int) -> int:
    return _neighbor_data(j, level)[0]


def _rational_neighbors(j: FieldElement, level: int) -> tuple[FieldElement, ...]:
    return _neighbor_data(j, level)[1]


def _is_exceptional(j: FieldElement) -> bool:
    return j.is_zero() or j == j.ctx.from_int(1728)


def volcano_level(
    j: FieldElement, level: int, fd: ecurve.FrobeniusData | None = None
) -> tuple[int, int]:
    """(level, depth) of j in its l-volcano: the l-valuations of the
    conductors of End(E_j) and Z[pi] respectively.  fd is the Frobenius
    data of j over its minimal field, looked up when not given."""
    j = ffield.minimal_field(j)
    if fd is None:
        fd = ecurve.trace_of_j(j)
    if fd.t % j.ctx.p == 0:
        raise SupersingularInput("volcano structure is an ordinary notion")
    _, f_pi = split_discriminant(fd.d_pi)
    depth = 0
    f = f_pi
    while f % level == 0:
        depth += 1
        f //= level
    if depth == 0:
        return (0, 0)
    if level not in supported_levels():
        raise UnsupportedLevel(f"no data for level {level}")
    if _is_exceptional(j):
        return (0, depth)  # End(E_0), End(E_1728) are maximal orders
    # BFS distance to the floor; each edge changes the level by at most one,
    # so the shortest distance to a floor vertex is exactly depth - level
    frontier = [j]
    seen = {j.encoding()}
    dist = 0
    while dist <= depth:
        nxt = []
        for v in frontier:
            if not _is_exceptional(v) and _rational_neighbor_count(v, level) <= 1:
                return (depth - dist, depth)
            for w in _rational_neighbors(v, level):
                if w.encoding() not in seen:
                    seen.add(w.encoding())
                    nxt.append(w)
        frontier = nxt
        dist += 1
    raise InternalInvariant("volcano walk exceeded its depth bound")


# ---------------------------------------------------------------------------
# endomorphism discriminants (dual provider)
# ---------------------------------------------------------------------------

def provider_a_disc(j: FieldElement) -> CMOrder:
    """Volcano-based endomorphism discriminant of an ordinary j.

    Conjugate j share End(E_j), so the answer is cached per Frobenius orbit
    and walked from the orbit's least conjugate: it does not depend on which
    conjugate is asked first.
    """
    j = ffield.minimal_field(j)
    ctx = j.ctx
    least = ffield.orbit_key(j)
    key = (ctx.p, ctx.k, least)
    discs = _cache.store("disc")
    cached = discs.get(key)
    if cached is None:
        j = ctx.from_encoding(least)
        try:
            cached = _cache.publish(
                discs, key, _provider_a_uncached(j, ecurve.trace_of_j(j, least)))
        except (SupersingularInput, UnsupportedLevel) as exc:
            _cache.publish(discs, key, (type(exc), exc.args))
            raise
    if isinstance(cached, tuple):
        # a fresh instance per hit: re-raising a cached one would grow its traceback
        exc_type, args = cached
        raise exc_type(*args)
    return cached


def _provider_a_uncached(j: FieldElement, fd: ecurve.FrobeniusData) -> CMOrder:
    """Provider A on j in its minimal field, whose Frobenius data is fd."""
    if fd.t % j.ctx.p == 0:
        raise SupersingularInput("supersingular j-invariants have no CM order here")
    d_K, f_pi = split_discriminant(fd.d_pi)
    if _is_exceptional(j):
        order = CMOrder(d_K, 1)
        _require(order.D == d_K, "j = 0 and 1728 have maximal orders")
        return order
    levels = supported_levels()
    f_E = 1
    for prime, mult in sorted(factorize(f_pi).items()):
        if prime not in levels:
            raise UnsupportedLevel(
                f"Frobenius conductor has prime factor {prime} outside {levels}"
            )
        lam, depth = volcano_level(j, prime, fd)
        _require(depth == mult, "volcano depth must be the conductor valuation")
        f_E *= prime**lam
    return CMOrder(d_K, f_E)


def endo_discriminant(j: FieldElement, hilbert_check: str | bool = "auto") -> CMOrder:
    """Discriminant of End(E_j) over the closure, for ordinary j.

    Provider A (volcano walk) computes the answer; provider B confirms that
    j is a root of the class polynomial of the claimed discriminant.  With
    hilbert_check="auto" the confirmation runs when the class polynomial's
    root field has at most classpoly.AUTO_CHECK_MAX_Q elements; True forces
    it, False skips it.  Disagreement raises ProviderDisagreement.

    H_D has coefficients in F_p, so its roots are whole Frobenius orbits: the
    confirmation runs once per (orbit, D), on the j the caller passed, and
    the orbits it confirmed are kept in a store.
    """
    j = ffield.minimal_field(j)
    order = provider_a_disc(j)
    if hilbert_check is False:
        return order
    from . import classpoly  # deferred: classpoly builds on this module

    p = j.ctx.p
    if hilbert_check == "auto":
        m = classpoly.class_order_of_p(order.D, p, max_q=classpoly.AUTO_CHECK_MAX_Q)
        if m is None:
            return order
    key = (p, j.ctx.k, ffield.orbit_key(j), order.D)
    confirmed = _cache.store("hilbert_roots")
    if key in confirmed:
        return order
    value = classpoly.hilbert_eval(order.D, j)
    if not value.is_zero():
        raise ProviderDisagreement(
            f"volcano provider claims D={order.D} for j with encoding "
            f"{j.encoding()} over F_{p}^{j.ctx.k}, but H_D(j) != 0"
        )
    _cache.publish(confirmed, key, True)
    return order


# ---------------------------------------------------------------------------
# geometric isogeny
# ---------------------------------------------------------------------------

def geometrically_isogenous(j1: FieldElement, j2: FieldElement) -> bool:
    """Whether E_{j1} and E_{j2} are isogenous over the algebraic closure:
    both supersingular, or both ordinary with the same endomorphism algebra,
    i.e. equal fundamental discriminants, which the trace gives: d_K is the
    fundamental part of t^2 - 4q."""
    s1 = ecurve.is_supersingular_j(j1)
    s2 = ecurve.is_supersingular_j(j2)
    if s1 or s2:
        return s1 and s2
    return (split_discriminant(ecurve.trace_of_j(j1).d_pi)[0]
            == split_discriminant(ecurve.trace_of_j(j2).d_pi)[0])


def isogeny_path(
    j1: FieldElement, j2: FieldElement, levels
) -> list[tuple[int, FieldElement]] | None:
    """Breadth-first horizontal path from j1 to j2 through same-order vertices.

    Returns the list of (level, vertex) steps, or None when the explored
    component (bounded by the class number) does not reach j2.
    """
    order = endo_discriminant(j1, hilbert_check=False)
    other = endo_discriminant(j2, hilbert_check=False)
    if order.D != other.D:
        raise ValueError("isogeny_path requires equal endomorphism discriminants")
    j1 = ffield.minimal_field(j1)
    j2 = ffield.minimal_field(j2)
    if j1.ctx.k != j2.ctx.k:
        return None
    if j1 == j2:
        return []
    from . import classpoly

    p = j1.ctx.p
    levels = [l for l in levels if l != p]
    bound = classpoly.class_number(order.D)
    frontier = [(j1, [])]
    seen = {j1.encoding()}
    while frontier and len(seen) <= bound:
        nxt = []
        for v, trail in frontier:
            for level in levels:
                for w in _rational_neighbors(v, level):
                    if w.encoding() in seen:
                        continue
                    try:
                        if provider_a_disc(w).D != order.D:
                            continue
                    except (SupersingularInput, UnsupportedLevel):
                        continue
                    step = trail + [(level, w)]
                    if w == j2:
                        return step
                    seen.add(w.encoding())
                    nxt.append((w, step))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# per-context discriminant sweeps (shared with classpoly)
# ---------------------------------------------------------------------------

SUPERSINGULAR = "supersingular"
UNSUPPORTED = "unsupported"


def ordinary_disc_map(ctx: FieldCtx, traces=None) -> dict[int, object]:
    """encoding -> CMOrder | SUPERSINGULAR | UNSUPPORTED for every j in ctx,
    or, given a set of traces, for every j of degree ctx.k whose |t| is in it.

    One loop over ecurve.trace_classes: a class's |t| decides
    supersingularity, and provider A classifies each ordinary orbit once,
    from its least encoding.  The map itself is not cached, since the
    classes and provider A's disc store already hold every input.  Only
    tests call it without traces: the whole-field map is the reference
    that the trace-targeted sweep of classpoly is checked against.
    """
    out: dict[int, object] = {}
    for (d, t), orbits in ecurve.trace_classes(ctx).items():
        if traces is not None and (d != ctx.k or t not in traces):
            continue
        for orbit in orbits:
            if t % ctx.p == 0:
                verdict: object = SUPERSINGULAR
            else:
                try:
                    verdict = provider_a_disc(ctx.from_encoding(orbit[0]))
                except UnsupportedLevel:
                    verdict = UNSUPPORTED
            out.update(dict.fromkeys(orbit, verdict))
    return out
