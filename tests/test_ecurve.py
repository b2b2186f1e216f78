import gc
import tracemalloc
from math import isqrt

import pytest

from cmgate import _cache, clear_caches, cli
from cmgate import ecurve as ec
from cmgate import endoring as er
from cmgate import ffield as ff
from cmgate import polyring as pr
from cmgate._numutil import crc_rng, factorize
from cmgate.errors import InternalInvariant

F5 = ff.make_field(5, 1)
F7 = ff.make_field(7, 1)


class TestCurveFromJ:
    def test_j_zero_convention(self):
        E = ec.curve_from_j(F5.zero())
        assert E.a.is_zero() and E.b == F5.one()

    def test_j_1728_convention(self):
        E = ec.curve_from_j(F5.from_int(1728))  # 1728 = 3 mod 5
        assert E.a == F5.one() and E.b.is_zero()

    def test_j_two_formula(self):
        E = ec.curve_from_j(F5.from_int(2))
        assert E.a == F5.from_int(1)  # 3*2*(1728-2) = 3*2*1 mod 5
        assert E.b == F5.from_int(4)  # 2*2*1^2
        assert E.j == F5.from_int(2)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_roundtrip_over_quadratic_extension(self, p):
        ctx = ff.make_field(p, 2)
        for x in ff.enumerate_elements(ctx):
            assert ec.curve_from_j(x).j == x


class TestCountPoints:
    def test_j1728_curve_over_f5(self):
        E = ec.EllipticCurve(F5.one(), F5.zero())  # y^2 = x^3 + x
        assert ec.count_points(E) == 4

    def test_j0_curve_over_f5(self):
        E = ec.EllipticCurve(F5.zero(), F5.one())  # y^2 = x^3 + 1
        assert ec.count_points(E) == 6

    def test_count_matches_bruteforce_over_f25(self):
        ctx = ff.make_field(5, 2)
        E = ec.curve_from_j(ctx.gen())
        brute = 1
        for x in ff.enumerate_elements(ctx):
            rhs = E.rhs(x)
            for y in ff.enumerate_elements(ctx):
                if y * y == rhs:
                    brute += 1
        assert ec.count_points(E) == brute

    def test_hasse_bound(self):
        for p in (5, 7, 11, 13):
            ctx = ff.make_field(p, 1)
            for n in range(p):
                j = ctx.from_int(n)
                E = ec.curve_from_j(j)
                t = p + 1 - ec.count_points(E)
                assert t * t <= 4 * p

    def test_twist_counts_sum(self):
        rng = crc_rng("twist-sum")
        for p in (13, 101):
            ctx = ff.make_field(p, 1)
            for _ in range(5):
                j = ctx.from_int(rng.randrange(p))
                E = ec.curve_from_j(j)
                n1 = ec.count_points(E)
                n2 = ec.count_points(E.quadratic_twist())
                assert n1 + n2 == 2 * p + 2

    def test_every_naive_count_has_log_tables(self):
        # the character scan sums on discrete logs in every extension field
        assert ec.NAIVE_THRESHOLD <= ff._TABLE_MAX


class TestBsgsOracle:
    @pytest.mark.parametrize("q", [101, 1009])
    def test_bsgs_equals_naive(self, q):
        ctx = ff.make_field(q, 1)
        rng = crc_rng("bsgs-oracle", q)
        for _ in range(12):
            j = ctx.from_int(rng.randrange(q))
            E = ec.curve_from_j(j)
            naive = ec._naive_count(E)
            bsgs = ec._bsgs_count(E)
            assert naive == bsgs

    def test_bsgs_on_extension_field(self):
        ctx = ff.make_field(5, 6)  # q = 15625 > naive threshold
        E = ec.curve_from_j(ctx.gen())
        n = ec.count_points(E)
        t = ctx.q + 1 - n
        assert t * t <= 4 * ctx.q
        # cross-check against the naive scan
        assert n == ec._naive_count(E)


    @pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (5, 3), (7, 3), (5, 4), (13, 2)])
    def test_log_domain_count_matches_element_sum(self, p, k):
        # the discrete-log character sum against the element-by-element scan
        ctx = ff.make_field(p, k)
        rng = crc_rng("naive-log-domain", p, k)
        pairs = [(0, 1), (1, 0), (p - 1, 1)]
        pairs += [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(10)]
        for a, b in pairs:
            try:
                E = ec.EllipticCurve(ctx.from_encoding(a), ctx.from_encoding(b))
            except ValueError:
                continue
            scan = ctx.q + 1 + sum(ec._chi(ctx, E.rhs(x)) for x in ff.enumerate_elements(ctx))
            assert ec._naive_count(E) == scan


    def test_bsgs_above_the_table_cut(self):
        # tuple elements key the baby steps by their coefficient tuples
        ctx = ff.make_field(100003, 1)
        assert ctx.log is None
        rng = crc_rng("bsgs-tuple-keys")
        for _ in range(4):
            E = ec.curve_from_j(ctx.from_int(rng.randrange(ctx.q)))
            assert ec._bsgs_count(E) == ec._naive_count(E)

    def test_one_cut_point(self, monkeypatch):
        # the same cut serves prime and extension fields
        used = []
        monkeypatch.setattr(ec, "_naive_count", lambda E: used.append(E.ctx.q) or 0)
        monkeypatch.setattr(ec, "_bsgs_count", lambda E: 0)
        fields = [(41, 2), (43, 2), (1789, 1), (1801, 1)]  # 1681, 1849, 1789, 1801
        for p, k in fields:
            ec.count_points(ec.curve_from_j(ff.make_field(p, k).from_int(5)))
        assert used == [p**k for p, k in fields if p**k <= ec.NAIVE_THRESHOLD] == [1681, 1789]


class TestFrobeniusData:
    def test_j1728_data(self):
        E = ec.EllipticCurve(F5.one(), F5.zero())
        d = ec.frobenius_data(E)
        assert (d.t, d.d_pi) == (2, -16)

    def test_j0_data(self):
        E = ec.EllipticCurve(F5.zero(), F5.one())
        d = ec.frobenius_data(E)
        assert (d.t, d.d_pi) == (0, -20)

    def test_supersingular_trace_zero_over_prime_field(self):
        # over F_p (p >= 5) supersingular curves have t = 0, so d_pi = -4p
        E = ec.EllipticCurve(F5.zero(), F5.one())
        d = ec.frobenius_data(E)
        assert d.d_pi == -4 * 5


def supersingular(E):
    """p divides the Frobenius trace."""
    return ec.frobenius_data(E).t % E.ctx.p == 0


class TestSupersingular:
    def test_known_cases_over_f5(self):
        assert supersingular(ec.EllipticCurve(F5.zero(), F5.one()))
        assert not supersingular(ec.EllipticCurve(F5.one(), F5.zero()))

    def test_j0_ordinary_iff_p_1_mod_3(self):
        assert ec.is_supersingular_j(F5.zero())  # 5 = 2 mod 3
        assert not ec.is_supersingular_j(F7.zero())  # 7 = 1 mod 3

    def test_base_change_invariance(self):
        F25 = ff.make_field(5, 2)
        for n in range(5):
            j = F5.from_int(n)
            E = ec.curve_from_j(j)
            verdict = supersingular(E)
            lifted = ec.curve_from_j(ff.embed(j, F25))
            assert supersingular(lifted) == verdict
            assert supersingular(E.base_change(F25)) == verdict

    def test_model_independence(self):
        # supersingularity depends on j only, not on the chosen twist
        ctx = ff.make_field(7, 1)
        for n in range(7):
            E = ec.curve_from_j(ctx.from_int(n))
            assert supersingular(E) == supersingular(E.quadratic_twist())


# both sides of the table cut (2^16), with k = 1, 2 and >= 3
LAW_FIELDS = [(103, 1), (65521, 1), (65537, 1), (13, 2), (251, 2), (7, 3), (5, 6),
              (257, 2), (101, 3), (17, 4)]


# ---------------------------------------------------------------------------
# reference oracles: the affine law on element objects, double-and-add on it,
# and the exact order of a point by one annihilator plus reduction
# ---------------------------------------------------------------------------

class ElementLaw:
    """The group law on pairs of field elements, through the element
    operators, with infinity as None."""

    def __init__(self, E):
        self.a = E.a

    def point(self, x, y):
        return (x, y)

    def key(self, P):
        return P if P is None else (P[0].coeffs, P[1].coeffs)

    def neg(self, P):
        return None if P is None else (P[0], -P[1])

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2).is_zero():
                return None
            lam = ((x1 * x1).scale(3) + self.a) / (y1 + y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1)


def ref_mul(n, P, law):
    if n < 0:
        return ref_mul(-n, law.neg(P), law)
    R = None
    for bit in bin(n)[2:]:
        R = law.add(R, R)
        if bit == "1":
            R = law.add(R, P)
    return R


def ref_order(P, law, lo, hi):
    """Exact order of P: the first annihilator in [lo, hi] by baby-step
    giant-step, divided by each prime factor while the quotient annihilates."""
    m = isqrt(hi - lo) + 1
    baby = {}
    Q = None
    for j in range(m):
        baby.setdefault(law.key(Q), j)
        Q = law.add(Q, P)
    mP = ref_mul(m, P, law)
    R = ref_mul(lo, P, law)
    annihilator = None
    for n in range(lo, hi + 1, m):
        j = baby.get(law.key(law.neg(R)))
        if j is not None and n + j <= hi:
            annihilator = n + j
            break
        R = law.add(R, mP)
    assert annihilator  # the group order lies in [lo, hi]
    d = annihilator
    for prime in factorize(annihilator):
        while d % prime == 0 and ref_mul(d // prime, P, law) is None:
            d //= prime
    return d


def multiples(d, lo, hi):
    return [n for n in range(lo, hi + 1) if n % d == 0]


class TestGroupLaws:
    def test_dispatch(self):
        for (p, k), law in [((65521, 1), ec._ResidueLaw), ((65537, 1), ec._ResidueLaw),
                            ((251, 2), ec._LogLaw), ((5, 6), ec._LogLaw),
                            ((257, 2), ec._CoeffLaw), ((17, 4), ec._CoeffLaw)]:
            E = ec.curve_from_j(ff.make_field(p, k).from_int(5))
            assert type(ec._group_law(E)) is law, (p, k)

    @staticmethod
    def special_points(E):
        """The points of order 2 and the points with x = 0, as elements."""
        ctx = E.ctx
        rhs = pr.UniPoly(ctx, [E.b, E.a, ctx.zero(), ctx.one()])
        out = [(x, ctx.zero()) for x in pr.roots_in(rhs, ctx.k)]
        if ec._chi(ctx, E.b) == 1:
            out.append((ctx.zero(), ec._sqrt(ctx, E.b)))
        return out

    @pytest.mark.parametrize("p,k", LAW_FIELDS)
    def test_int_law_matches_object_law(self, p, k):
        # the residue, log and tuple laws against the element law: sums,
        # multiples and annihilator sets, on O, points of order 2 and x = 0
        ctx = ff.make_field(p, k)
        rng = crc_rng("group-law", p, k)
        s = isqrt(4 * ctx.q)
        lo, hi = ctx.q + 1 - s, ctx.q + 1 + s
        specials = 0
        for trial in range(8):
            j = ctx.from_int(1728) if trial == 0 else ctx.from_encoding(rng.randrange(ctx.q))
            E = ec.curve_from_j(j)
            law, obj = ec._group_law(E), ElementLaw(E)

            def conv(P):
                return None if P is None else law.point(*P)

            points = [ec._random_point(E, rng) for _ in range(2)] + self.special_points(E)
            specials += len(points) - 2
            for P in points + [None]:
                for Q in points + [obj.neg(P), None]:
                    assert law.add(conv(P), conv(Q)) == conv(obj.add(P, Q))
                for n in (0, 1, 2, 3, 7, -5, ctx.q + 1, rng.randrange(ctx.q)):
                    assert ec._ec_mul(n, conv(P), law) == conv(ref_mul(n, P, obj))
                hits = ec._annihilators(conv(P), law, lo, hi)
                assert hits == multiples(ref_order(P, obj, lo, hi), lo, hi)
        assert specials  # x = 0 and y = 0 were exercised

    @pytest.mark.parametrize("p,k", LAW_FIELDS)
    def test_filter_and_counts_match_object_law(self, p, k, monkeypatch):
        # BSGS counts the same under both laws, and under each law the count
        # q + 1 - t annihilates a point of the curve, q + 1 + t one of its twist
        ctx = ff.make_field(p, k)
        rng = crc_rng("group-law-counts", p, k)
        curves = [ec.curve_from_j(ctx.from_encoding(rng.randrange(ctx.q))) for _ in range(4)]

        def run():
            counts = []
            for n, E in enumerate(curves):
                count = ec._bsgs_count(E)
                for curve, order in ((E, count), (E.quadratic_twist(), 2 * (ctx.q + 1) - count)):
                    law = ec._group_law(curve)
                    P = law.point(*ec._random_point(curve, crc_rng("order", n)))
                    assert ec._ec_mul(order, P, law) is None
                counts.append(count)
            return counts

        fast = run()
        monkeypatch.setattr(ec, "_group_law", ElementLaw)
        assert run() == fast


# k >= 2 above the table cut (2^16): the tuple law, norm characters, twists
BIG_FIELDS = [(257, 2), (293, 2), (101, 3), (211, 3)]


class TestBigExtensionCounts:
    @staticmethod
    def prime_field_trace(p, a, b):
        """t_1 of y^2 = x^3 + a x + b over F_p, from Legendre symbols."""
        total = 0
        for x in range(p):
            r = (x * x * x + a * x + b) % p
            if r:
                total += 1 if pow(r, (p - 1) // 2, p) == 1 else -1
        return -total

    @pytest.mark.parametrize("p,k", BIG_FIELDS)
    def test_count_matches_frobenius_recurrence(self, p, k):
        # #E(F_{p^k}) = p^k + 1 - t_k with t_k = t_1 t_{k-1} - p t_{k-2}
        ctx = ff.make_field(p, k)
        assert ctx.log is None
        rng = crc_rng("big-extension-oracle", p, k)
        curves = [(1, 0), (0, 1)]
        while len(curves) < 8:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b * b) % p:
                curves.append((a, b))
        for a, b in curves:
            t1 = self.prime_field_trace(p, a, b)
            t_prev, t = 2, t1
            for _ in range(k - 1):
                t_prev, t = t, t1 * t - p * t_prev
            E = ec.EllipticCurve(ctx.from_int(a), ctx.from_int(b))
            assert ec.count_points(E) == ctx.q + 1 - t, (a, b)


class TestNormCharacter:
    @pytest.mark.parametrize("p,k", [(65537, 1), (257, 2), (101, 3), (17, 4), (11, 5)])
    def test_chi_is_euler_criterion(self, p, k):
        # chi(u) = Legendre(N(u)) against u^((q - 1)/2), on subfield elements too
        ctx = ff.make_field(p, k)
        rng = crc_rng("norm-chi", p, k)
        one, half = ctx.one(), (ctx.q - 1) // 2
        xs = [ctx.from_encoding(rng.randrange(1, ctx.q)) for _ in range(30)]
        xs += [ctx.from_int(c) for c in (1, 2, 3, p - 1)]
        assert ec._chi(ctx, ctx.zero()) == 0
        for u in xs:
            assert ec._chi(ctx, u) == (1 if u**half == one else -1)

    @pytest.mark.parametrize("p,k", [(257, 2), (101, 3)])
    def test_nonsquare_and_twist(self, p, k):
        ctx = ff.make_field(p, k)
        c = ec._nonsquare(ctx)
        assert c ** ((ctx.q - 1) // 2) == -ctx.one()
        E = ec.curve_from_j(ctx.from_int(5))
        assert ec.count_points(E) + ec.count_points(E.quadratic_twist()) == 2 * ctx.q + 2


class TestBigFieldElementBudget:
    def test_counts_run_on_tuples(self, monkeypatch):
        # a count over F_{257^2} or F_{101^3} adds points as coefficient
        # tuples; on element objects it builds thousands of elements
        curves = []
        for p, k in [(257, 2), (101, 3)]:
            ctx = ff.make_field(p, k)
            rng = crc_rng("element-budget", p, k)
            curves += [ec.curve_from_j(ctx.from_encoding(rng.randrange(ctx.q)))
                       for _ in range(10)]
        built = []
        init = ff._PolyElement.__init__

        def counting(self, ctx, coeffs):
            built.append(None)
            init(self, ctx, coeffs)

        monkeypatch.setattr(ff._PolyElement, "__init__", counting)
        for E in curves:
            ec.count_points(E)
        assert len(built) / len(curves) < 300


# F_{5^k}, k <= 4, and small extensions of 7, 11 and 13, all with log tables
ORBIT_FIELDS = [(5, 1), (5, 2), (5, 3), (5, 4), (7, 3), (11, 2), (13, 2)]


def conjugates(x):
    """x, x^p, ..., x^(p^(k-1)) in x's context, by ffield.frobenius."""
    out = [x]
    for _ in range(x.ctx.k - 1):
        out.append(ff.frobenius(out[-1]))
    return out


def big_field_samples(count=3):
    """Seeded j in F_{257^2}, above the table cut, and one of F_257 in it."""
    ctx = ff.make_field(257, 2)
    rng = crc_rng("orbit-key-samples", 257, 2)
    js = [ctx.from_encoding(rng.randrange(257, ctx.q)) for _ in range(count)]
    return js + [ff.embed(ff.make_field(257, 1).from_int(rng.randrange(257)), ctx)]


def orbit_samples(p, k, count=12):
    """Seeded elements of F_{p^k} and of each proper subfield, embedded."""
    ctx = ff.make_field(p, k)
    rng = crc_rng("orbit-samples", p, k)
    xs = [ctx.from_encoding(rng.randrange(ctx.q)) for _ in range(count)]
    for d in [e for e in range(1, k) if k % e == 0]:
        sub = ff.make_field(p, d)
        xs += [ff.embed(sub.from_encoding(rng.randrange(sub.q)), ctx) for _ in range(3)]
    return xs + [ctx.zero(), ctx.one()]


class TestFrobeniusOrbit:
    @staticmethod
    def check(x):
        orbit = ff.frobenius_orbit(x)
        k = x.ctx.k
        # the k conjugates repeat the orbit k / d times, d its length
        assert k % len(orbit) == 0 and len(set(orbit)) == len(orbit)
        assert [y.encoding() for y in conjugates(x)] == list(orbit) * (k // len(orbit))
        assert ff.element_degree(x) == len(orbit)

    @pytest.mark.parametrize("p,k", ORBIT_FIELDS)
    def test_matches_the_frobenius_walk(self, p, k):
        for x in ff.enumerate_elements(ff.make_field(p, k)):
            self.check(x)

    @pytest.mark.parametrize("p,k", [(257, 2), (17, 4), (11, 5)])
    def test_matches_the_frobenius_walk_above_the_table_cut(self, p, k):
        assert ff.make_field(p, k).log is None
        for x in orbit_samples(p, k):
            self.check(x)

    @pytest.mark.parametrize("p,k", [(29, 1), (7, 3), (13, 2), (5, 4)])
    def test_trace_classes_walk_encodings(self, p, k, monkeypatch):
        ctx = ff.make_field(p, k)
        clear_caches()
        try:
            walked = ec.trace_classes(ctx)
            clear_caches()

            def no_elements(*args):
                raise AssertionError("trace_classes walked element objects")

            monkeypatch.setattr(ff, "frobenius", no_elements)
            monkeypatch.setattr(ff, "enumerate_elements", no_elements)
            assert ec.trace_classes(ctx) == walked
        finally:
            clear_caches()


class TestOrbitKeys:
    @pytest.mark.parametrize("p,k", ORBIT_FIELDS)
    def test_orbit_key_is_least_conjugate(self, p, k):
        for x in ff.enumerate_elements(ff.make_field(p, k)):
            assert ff.orbit_key(x) == min(y.encoding() for y in conjugates(x))
            jm = ff.minimal_field(x)
            assert ff.orbit_key(jm) == min(y.encoding() for y in conjugates(jm))

    def test_orbit_key_above_the_table_cut(self):
        for x in big_field_samples():
            for y in conjugates(x):
                assert ff.orbit_key(y) == min(z.encoding() for z in conjugates(x))

    @pytest.mark.parametrize("p,k", ORBIT_FIELDS)
    def test_trace_is_the_count_of_the_own_model(self, p, k):
        # the store is keyed by orbit and counts the least conjugate; ask the
        # largest encodings first, so most lookups hit an entry that another
        # conjugate filled
        clear_caches()
        ctx = ff.make_field(p, k)
        for n in reversed(range(ctx.q)):
            j = ctx.from_encoding(n)
            jm = ff.minimal_field(j)
            fd = ec.trace_of_j(j)
            own = ec.frobenius_data(ec.curve_from_j(jm))
            assert (fd.q, fd.t) == (own.q, own.t)

    def test_trace_above_the_table_cut(self):
        clear_caches()
        for x in big_field_samples():
            for y in reversed(conjugates(x)):
                own = ec.frobenius_data(ec.curve_from_j(ff.minimal_field(y)))
                assert ec.trace_of_j(y).t == own.t


# the fields the suite sweeps, and for each k from 1 to 5 at least one field;
# together they have q = 1 and 3 mod 4, p = 1 and 2 mod 3, and the 1-, 2- and
# 3-byte slots of the correlation (F_{149^2}, checked on a seeded sample of j)
TABLE_FIELDS = [
    (11, 1), (13, 1), (29, 1), (31, 1), (59, 1),
    (5, 2), (13, 2), (17, 2), (23, 2), (29, 2), (43, 2),
    (5, 3), (7, 3), (11, 3), (5, 4), (5, 5), (149, 2),
]


def _trace_fault(ctx, fault, monkeypatch):
    """Make trace_table's helpers err in one way over ctx."""
    fibres, correlate = ec._fibres, ec._correlate
    if fault == "entry":  # one slot of the product off by one
        monkeypatch.setattr(ec, "_correlate", lambda f, g: (correlate(f, g)[0] + 1,
                                                           *correlate(f, g)[1:]))
    elif fault == "offset":  # G + 4 packed in place of G + 3
        monkeypatch.setattr(ec, "_correlate", lambda f, g: correlate([v + 1 for v in f], g))
    else:  # the fibre of one v dropped
        def dropped(c):
            signed, count = fibres(c)
            v = max(range(c.qm1), key=count.__getitem__)
            signed[v] = count[v] = 0
            return signed, count

        monkeypatch.setattr(ec, "_fibres", dropped)


class TestTraceTable:
    @pytest.mark.parametrize("p,k", TABLE_FIELDS)
    def test_table_is_the_count_of_every_fixed_model(self, p, k):
        ctx = ff.make_field(p, k)
        trace = ec.trace_table(ctx)
        special = {0, ctx.from_int(1728).encoding()}
        if ctx.q <= 4096:
            encodings = range(ctx.q)
        else:
            rng = crc_rng("trace-table-sample", p, k)
            encodings = [rng.randrange(ctx.q) for _ in range(300)]
        for n in encodings:
            if n not in special:
                j = ctx.from_encoding(n)
                assert trace(n) == ec.frobenius_data(ec.curve_from_j(j)).t

    @pytest.mark.parametrize("p,k", TABLE_FIELDS)
    def test_encoding_route_is_the_element_route(self, p, k):
        ctx = ff.make_field(p, k)
        k1728 = ctx.from_int(1728)
        if ctx.q <= 4096:
            encodings = range(1, ctx.q)
        else:
            rng = crc_rng("log-1728-minus-sample", p, k)
            encodings = [rng.randrange(1, ctx.q) for _ in range(2000)]
        for n in encodings:
            if n != k1728.encoding():
                w = k1728 - ctx.from_encoding(n)
                assert ec._log_1728_minus(ctx, n) == ctx.log[w.encoding()]

    @pytest.mark.parametrize("p,k", TABLE_FIELDS)
    def test_kept_table_is_the_count_of_every_orbit(self, p, k, monkeypatch):
        ctx = ff.make_field(p, k)
        clear_caches()
        lookups = []
        trace_of_j = ec.trace_of_j
        monkeypatch.setattr(ec, "trace_of_j",
                            lambda *args: lookups.append(args) or trace_of_j(*args))
        try:
            classes = ec.trace_classes(ctx)
            traces = _cache.store("trace")
            # the sweep looks up 0, 1728 and the subfield orbits alone
            assert len(traces) <= len(lookups)
            traces.clear()  # each orbit below is read from the kept table or counted anew
            lookups.clear()
            orbits = sorted(orbit for orbits in classes.values() for orbit in orbits)
            if ctx.q > 4096:
                spanning = [orbit for orbit in orbits if len(orbit) == k]
                rng = crc_rng("kept-table-sample", p, k)
                orbits = [orbit for orbit in orbits if len(orbit) < k] + rng.sample(spanning, 100)
            special = {0, ctx.from_int(1728).encoding()}
            assert special <= {orbit[0] for orbit in orbits}
            for orbit in orbits:
                # asked through the last conjugate, counted on the least
                fd = ec.trace_of_j(ctx.from_encoding(orbit[-1]))
                own = ec.frobenius_data(ec.curve_from_j(ff.minimal_field(
                    ctx.from_encoding(orbit[0]))))
                assert (fd.q, fd.t) == (own.q, own.t)
            assert len(traces) <= len(lookups)
        finally:
            clear_caches()

    def test_a_stored_trace_that_disagrees_raises(self):
        ctx = ff.make_field(7, 3)
        clear_caches()
        try:
            n = next(n for n in range(ctx.q) if ff.element_degree(ctx.from_encoding(n)) == 3)
            t = ec.trace_of_j(ctx.from_encoding(n)).t
            _cache.store("trace")[(7, 3, n)] = t + 2
            with pytest.raises(InternalInvariant, match="agrees with the stored trace"):
                ec.trace_classes(ctx)
            # hilbert_mod_p(-31, 7) sweeps F_{7^3}
            assert cli.run(["hilbert", "--D", "-31", "--p", "7"]) == 3
        finally:
            clear_caches()

    @pytest.mark.parametrize("fault,check", [
        ("entry", "2-torsion parity"), ("offset", "Hasse bound"), ("fibre", "partition")])
    def test_a_fault_raises_rather_than_returns_a_wrong_trace(self, fault, check, monkeypatch):
        ctx = ff.make_field(7, 3)
        clear_caches()
        try:
            _trace_fault(ctx, fault, monkeypatch)
            with pytest.raises(InternalInvariant, match=check):
                ec.trace_table(ctx)
            # hilbert_mod_p(-31, 7) sweeps F_{7^3}
            assert cli.run(["hilbert", "--D", "-31", "--p", "7"]) == 3
        finally:
            clear_caches()

    @pytest.mark.parametrize("p,k", [(29, 1), (7, 3), (29, 2), (5, 4)])
    def test_trace_classes_count_no_spanning_orbit(self, p, k, monkeypatch):
        clear_caches()
        ctx = ff.make_field(p, k)
        special = {0, ctx.from_int(1728).encoding()}
        count = ec.count_points
        counted = []
        monkeypatch.setattr(ec, "count_points", lambda E: counted.append(E) or count(E))
        try:
            classes = ec.trace_classes(ctx)
            # the table serves every orbit but 0, 1728 and those of subfields
            assert counted and all(E.ctx.k < k or E.j.encoding() in special for E in counted)

            def no_count(E):
                raise AssertionError("counted a trace that trace_classes stored")

            monkeypatch.setattr(ec, "count_points", no_count)
            for (d, t), orbits in classes.items():
                for orbit in orbits:
                    for enc in orbit if d == k else ():
                        assert abs(ec.trace_of_j(ctx.from_encoding(enc)).t) == t
        finally:
            clear_caches()

    @pytest.mark.parametrize("p,k", [(31, 1), (7, 3), (13, 2), (5, 4)])
    def test_disc_map_is_unchanged(self, p, k, monkeypatch):
        ctx = ff.make_field(p, k)
        clear_caches()
        try:
            tabled = er.ordinary_disc_map(ctx)
            clear_caches()
            # the per-orbit counts that the table replaces
            monkeypatch.setattr(ec, "trace_table", lambda c: lambda j: ec.frobenius_data(
                ec.curve_from_j(c.from_encoding(j))).t)
            counted = er.ordinary_disc_map(ctx)
        finally:
            clear_caches()
        assert len(tabled) == ctx.q
        assert tabled == counted


class TestTraceMemory:
    #: what F_{103^2} and its swept classes may hold, in bytes: 1.25 MiB, a
    #: fifth above the 1,084,511 B measured on CPython 3.11.  With a trace
    #: store entry per orbit and an int object per table entry and list, the
    #: same sweep held 2,280,112 B
    BOUND = 1_310_720

    def test_swept_field_retains_at_most_the_bound(self, monkeypatch):
        # a context store of its own, so that make_field builds the tables anew
        monkeypatch.setitem(_cache._stores, "ctx", {})
        clear_caches()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctx = ff.make_field(103, 2)
            classes = ec.trace_classes(ctx)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            clear_caches()
        assert sum(map(len, classes.values())) == 5356  # the orbits of F_{103^2}
        assert retained <= self.BOUND
