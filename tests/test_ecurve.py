from math import isqrt

import pytest

from cmgate import ecurve as ec
from cmgate import ffield as ff
from cmgate import polyring as pr
from cmgate._numutil import crc_rng

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


class TestTraceFilter:
    @pytest.mark.parametrize("p,k", [(13, 2), (103, 1), (7, 3)])
    def test_against_full_counts(self, p, k):
        ctx = ff.make_field(p, k)
        rng = crc_rng("trace-filter", p, k)
        rejected = 0
        for _ in range(40):
            E = ec.curve_from_j(ctx.from_encoding(rng.randrange(ctx.q)))
            t = ctx.q + 1 - ec._naive_count(E)
            # never rejects the true trace, nor its negative
            assert ec.trace_filter(E, {abs(t)}, rng)
            assert ec.trace_filter(E.quadratic_twist(), {abs(t)}, rng)
            others = {s for s in range(1, 2 * isqrt(ctx.q) + 1) if s != abs(t)}
            wrong = set(rng.sample(sorted(others), 2))
            rejected += not ec.trace_filter(E, wrong, rng)
        assert rejected >= 30  # and rules most wrong traces out


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
LAW_FIELDS = [(103, 1), (65521, 1), (65537, 1), (13, 2), (251, 2), (7, 3), (5, 6)]


class TestGroupLaws:
    def test_dispatch(self):
        for (p, k), law in [((65521, 1), ec._ResidueLaw), ((65537, 1), ec._ResidueLaw),
                            ((251, 2), ec._LogLaw), ((5, 6), ec._LogLaw),
                            ((257, 2), ec._ObjectLaw)]:
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
        ctx = ff.make_field(p, k)
        rng = crc_rng("group-law", p, k)
        s = isqrt(4 * ctx.q)
        lo, hi = ctx.q + 1 - s, ctx.q + 1 + s
        specials = 0
        for trial in range(8):
            j = ctx.from_int(1728) if trial == 0 else ctx.from_encoding(rng.randrange(ctx.q))
            E = ec.curve_from_j(j)
            law, obj = ec._group_law(E), ec._ObjectLaw(E)

            def conv(P):
                return None if P is None else law.point(*P)

            points = [ec._random_point(E, rng) for _ in range(2)] + self.special_points(E)
            specials += len(points) - 2
            for P in points:
                for Q in points + [obj.neg(P), None]:
                    assert law.add(conv(P), conv(Q)) == conv(obj.add(P, Q))
                for n in (0, 1, 2, 3, 7, -5, ctx.q + 1, rng.randrange(ctx.q)):
                    assert ec._ec_mul(n, conv(P), law) == conv(ec._ec_mul(n, P, obj))
                order = ec._point_order(conv(P), law, lo, hi)
                assert order == ec._point_order(P, obj, lo, hi)
        assert specials  # x = 0 and y = 0 were exercised

    @pytest.mark.parametrize("p,k", LAW_FIELDS)
    def test_filter_and_counts_match_object_law(self, p, k, monkeypatch):
        ctx = ff.make_field(p, k)
        rng = crc_rng("group-law-counts", p, k)
        curves = [ec.curve_from_j(ctx.from_encoding(rng.randrange(ctx.q))) for _ in range(4)]
        s = isqrt(4 * ctx.q)
        trace_sets = [set(rng.sample(range(1, s + 1), 3)) for _ in curves]

        def run():
            return [
                (ec._bsgs_count(E), ec.trace_filter(E, traces, crc_rng("filter", n)))
                for n, (E, traces) in enumerate(zip(curves, trace_sets))
            ]

        fast = run()
        monkeypatch.setattr(ec, "_group_law", ec._ObjectLaw)
        assert run() == fast
        # and the filter never rejects a curve's own trace
        for E, (count, _) in zip(curves, fast):
            assert ec.trace_filter(E, {abs(ctx.q + 1 - count)}, rng)
