import pytest

from cmgate import classpoly as cp
from cmgate import clear_caches
from cmgate import ecurve as ec
from cmgate import endoring as er
from cmgate import ffield as ff
from cmgate import polyring as pr
from cmgate.errors import (
    ProviderDisagreement, SizeExceeded, SupersingularInput, UnsupportedLevel,
)
from cmgate._numutil import crc_rng

F5 = ff.make_field(5, 1)
F7 = ff.make_field(7, 1)
F11 = ff.make_field(11, 1)
F13 = ff.make_field(13, 1)
F25 = ff.make_field(5, 2)


class TestSplitDiscriminant:
    @pytest.mark.parametrize(
        "d,expected",
        [(-16, (-4, 2)), (-20, (-20, 1)), (-675, (-3, 15)), (-12, (-3, 2)),
         (-4, (-4, 1)), (-63, (-7, 3)), (-32, (-8, 2))],
    )
    def test_examples(self, d, expected):
        assert er.split_discriminant(d) == expected

    def test_identity(self):
        for d in range(-200, 0):
            if d % 4 in (0, 1):
                d_K, f = er.split_discriminant(d)
                assert f * f * d_K == d
                assert er._is_fundamental(d_K)


class TestModularPolynomial:
    def test_degree_and_symmetry(self):
        for level in (2, 3, 5, 7, 11, 13):
            phi = er.modular_polynomial(level)
            assert max(i for i, _ in phi.terms) == level + 1
            for (i, j), c in phi.terms.items():
                assert phi.terms[(j, i)] == c

    def test_phi2_isogenous_pair(self):
        # 0 and 54000 are 2-isogenous j-values in any characteristic >= 5
        for p in (5, 7, 11, 31):
            ctx = ff.make_field(p, 1)
            assert er.phi_at_j(2, ctx.zero()).evaluate(ctx.from_int(54000)).is_zero()

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevel):
            er.modular_polynomial(17)

    def test_kronecker_congruence(self):
        for level in (2, 3, 5):
            phi = er.modular_polynomial(level)
            ref = {(level + 1, 0): 1, (level, level): -1, (1, 1): -1, (0, level + 1): 1}
            for key in set(phi.terms) | set(ref):
                assert (phi.terms.get(key, 0) - ref.get(key, 0)) % level == 0


class TestPhiTable:
    # both sides of the table cut (2^16), with k = 1, 2 and >= 3
    @pytest.mark.parametrize("p,k", [
        (13, 1), (65521, 1), (65537, 1), (13, 2), (251, 2), (257, 2), (7, 3),
    ])
    def test_matches_bivariate_substitution(self, p, k):
        ctx = ff.make_field(p, k)
        rng = crc_rng("phi-table", p, k)
        js = [ctx.zero(), ctx.one(), ctx.from_int(1728)]
        js += [ctx.from_encoding(rng.randrange(ctx.q)) for _ in range(3)]
        for level in er.supported_levels():
            if level == p:
                continue
            # Phi_level reduced mod p, as a bivariate polynomial over F_p
            phi = pr.BiPoly(ff.make_field(p, 1), er.modular_polynomial(level).terms)
            for j in js:
                assert er.phi_at_j(level, j) == phi.substitute_x(j), (level, j)

    def test_level_equal_to_the_characteristic(self):
        with pytest.raises(UnsupportedLevel):
            er.phi_at_j(13, F13.from_int(2))


class TestIsogenousNeighbors:
    def test_total_multiplicity(self):
        for level in (2, 3):
            for enc in (2, 3, 4):
                neighbors = er.isogenous_neighbors(F13.from_int(enc), level)
                assert sum(m for _, m in neighbors) == level + 1

    def test_supersingular_neighbors_stay_supersingular(self):
        j0 = F11.zero()  # 11 = 2 mod 3: supersingular
        assert ec.is_supersingular_j(j0)
        for nb, _ in er.isogenous_neighbors(j0, 2):
            assert ec.is_supersingular_j(nb)

    def test_neighbor_relation_is_symmetric(self):
        j = F13.from_int(5)
        for nb, _ in er.isogenous_neighbors(j, 2):
            back = [w.encoding() for w, _ in er.isogenous_neighbors(nb, 2)
                    if w.ctx is j.ctx]
            assert j.encoding() in back

    def test_factor_beyond_the_size_bound(self):
        # Phi_3(12345, T) over F_{257^2} has one rational root and a cubic
        # factor whose roots live in F_{257^6}, beyond SIZE_BOUND: without a
        # `beyond` list that raises, with one the factor is set aside
        j = ff.make_field(257, 2).from_encoding(12345)
        with pytest.raises(SizeExceeded):
            er.isogenous_neighbors(j, 3)
        beyond = []
        neighbors = er.isogenous_neighbors(j, 3, beyond=beyond)
        assert [(w.ctx.k, w.encoding(), m) for w, m in neighbors] == [(2, 60805, 1)]
        assert beyond == [(3, 6, 1)]
        assert sum(m for _, m in neighbors) + sum(d * m for d, _, m in beyond) == 4


class TestVolcanoLevel:
    def test_trivial_when_level_prime_to_conductor(self):
        # j = 2 over F_5: t = ?, just require v_l(f_pi) = 0 cases return (0,0)
        j = F5.from_int(2)
        fd = ec.frobenius_data(ec.curve_from_j(j))
        _, f_pi = er.split_discriminant(fd.d_pi)
        for level in (2, 3):
            if f_pi % level:
                assert er.volcano_level(j, level) == (0, level and 0)

    def test_1728_over_f5(self):
        assert er.volcano_level(F5.from_int(3), 2) == (0, 1)

    def test_floor_vertex_level_equals_depth(self):
        # neighbours of the crater vertex 1728 in its depth-1 2-volcano:
        # the ramified horizontal edge loops back to 1728 itself (2 is a
        # norm from Z[i]); every other neighbour sits on the floor
        j = F5.from_int(3)
        down = pr.roots_in(er.phi_at_j(2, j), 1)
        assert down
        floor_seen = 0
        for w in down:
            if w == j or ec.is_supersingular_j(w):
                continue
            lam, depth = er.volcano_level(w, 2)
            assert (lam, depth) == (1, 1)
            floor_seen += 1
        assert floor_seen > 0

    def test_supersingular_rejected(self):
        with pytest.raises(SupersingularInput):
            er.volcano_level(F5.zero(), 2)


class TestEndoDiscriminant:
    def test_1728_over_f5(self):
        order = er.endo_discriminant(F5.from_int(3))
        assert (order.D, order.d_K, order.f) == (-4, -4, 1)

    def test_zero_over_f7(self):
        order = er.endo_discriminant(F7.zero())
        assert order.D == -3

    def test_squarefree_frobenius_disc_forces_maximal(self):
        found = 0
        for p, ctx in ((13, F13), (11, F11)):
            for n in range(p):
                j = ctx.from_int(n)
                try:
                    fd = ec.frobenius_data(ec.curve_from_j(j))
                except Exception:
                    continue
                if fd.t % p == 0:
                    continue
                d_K, f_pi = er.split_discriminant(fd.d_pi)
                if f_pi == 1:
                    assert er.endo_discriminant(j).D == fd.d_pi
                    found += 1
        assert found > 0

    def test_conductor_divides_frobenius_conductor(self):
        for x in ff.enumerate_elements(F25):
            val = er.ordinary_disc_map(F25)[x.encoding()]
            if not isinstance(val, er.CMOrder):
                continue
            jm = ff.minimal_field(x)
            fd = ec.frobenius_data(ec.curve_from_j(jm))
            d_K, f_pi = er.split_discriminant(fd.d_pi)
            assert d_K == val.d_K
            assert f_pi % val.f == 0
            assert fd.d_pi == f_pi * f_pi * d_K

    def test_supersingular_rejected(self):
        with pytest.raises(SupersingularInput):
            er.endo_discriminant(F5.zero())


class TestProviderACache:
    @staticmethod
    def _raise_depth(j):
        with pytest.raises(UnsupportedLevel) as info:
            er.provider_a_disc(j)
        depth, tb = 0, info.value.__traceback__
        while tb is not None:
            depth += 1
            tb = tb.tb_next
        return type(info.value), str(info.value), depth

    def test_cached_exception_does_not_grow(self):
        # the Frobenius conductor of j = 231 over F_100003 has a prime
        # factor beyond the vendored levels
        j = ff.make_field(100003, 1).from_int(231)
        first = self._raise_depth(j)
        second = self._raise_depth(j)
        for _ in range(997):
            self._raise_depth(j)
        thousandth = self._raise_depth(j)
        assert first[:2] == second[:2] == thousandth[:2]
        assert thousandth[2] == second[2]


class TestFrobeniusCmCheck:
    # the CM order is invariant under x -> x^p (Prop. 3.1)
    @pytest.mark.parametrize("p", [5, 7])
    def test_exhaustive_quadratic_field(self, p):
        ctx = ff.make_field(p, 2)
        for x in ff.enumerate_elements(ctx):
            try:
                assert er.endo_discriminant(x) == er.endo_discriminant(ff.frobenius(x))
            except SupersingularInput:
                pass

    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31])
    def test_exhaustive_quadratic_field_larger_p(self, p):
        # volcano provider across the whole quadratic field, Frobenius
        # orbits must agree; the dual-provider confirmation over the
        # smaller primes is the acceptance criterion's job
        ctx = ff.make_field(p, 2)
        disc_map = er.ordinary_disc_map(ctx)
        for x in ff.enumerate_elements(ctx):
            val = disc_map[x.encoding()]
            if isinstance(val, er.CMOrder):
                assert disc_map[ff.frobenius(x).encoding()] == val

    @pytest.mark.parametrize("p", [19, 29])
    def test_hilbert_membership_larger_p(self, p):
        # provider B (class-polynomial membership) on the full sweep
        from cmgate import classpoly as cp

        ctx = ff.make_field(p, 2)
        disc_map = er.ordinary_disc_map(ctx)
        for x in ff.enumerate_elements(ctx):
            val = disc_map[x.encoding()]
            if isinstance(val, er.CMOrder):
                assert cp.hilbert_eval(val.D, ff.minimal_field(x)).is_zero()

    def test_prime_field_fixed_points(self):
        for n in range(1, 5):
            j = F13.from_int(n)
            try:
                assert er.endo_discriminant(j) == er.endo_discriminant(ff.frobenius(j))
            except SupersingularInput:
                pass


class TestGeometricallyIsogenous:
    def test_two_supersingular(self):
        # over F_11 both 0 and 1728 = 1 are supersingular
        assert er.geometrically_isogenous(F11.zero(), F11.from_int(1728)) is True

    def test_mixed_pair(self):
        # j = 0 supersingular over F_5; j = 1728 = 3 ordinary
        assert er.geometrically_isogenous(F5.zero(), F5.from_int(3)) is False

    def test_distinct_fundamental_discriminants(self):
        # over F_13: End(E_0) has d_K = -3, End(E_1728) has d_K = -4
        assert er.geometrically_isogenous(F13.zero(), F13.from_int(1728)) is False

    def test_frobenius_conjugates_are_isogenous(self):
        for x in ff.enumerate_elements(F25):
            if ec.is_supersingular_j(x):
                continue
            assert er.geometrically_isogenous(x, ff.frobenius(x)) is True

    @pytest.mark.parametrize("p", [13, 223])
    def test_trace_d_K_agrees_with_provider_a(self, p):
        # the fundamental part of t^2 - 4q, which the relation reads, against
        # provider A's walk wherever that classifies j
        classified = 0
        for j in ff.enumerate_elements(ff.make_field(p, 1)):
            if ec.is_supersingular_j(j):
                continue
            try:
                d_K = er.provider_a_disc(j).d_K
            except UnsupportedLevel:
                continue
            assert er.split_discriminant(ec.trace_of_j(j).d_pi)[0] == d_K
            classified += 1
        assert classified

    @pytest.mark.parametrize("p", [5, 13])
    def test_equivalence_relation_on_quadratic_field(self, p):
        ctx = ff.make_field(p, 2)
        encs = [x.encoding() for x in ff.enumerate_elements(ctx)]
        verdicts = {}
        for a in encs:
            for b in encs:
                verdicts[(a, b)] = er.geometrically_isogenous(
                    ctx.from_encoding(a), ctx.from_encoding(b)
                )
        for a in encs:
            assert verdicts[(a, a)]
            for b in encs:
                assert verdicts[(a, b)] == verdicts[(b, a)]
        for a in encs:
            for b in encs:
                if not verdicts[(a, b)]:
                    continue
                for c in encs:
                    if verdicts[(b, c)]:
                        assert verdicts[(a, c)]


class TestIsogenyPath:
    def test_empty_path_for_equal_endpoints(self):
        j = F13.from_int(2)  # ordinary: the only supersingular j mod 13 is 5
        er.endo_discriminant(j, hilbert_check=False)
        assert er.isogeny_path(j, j, (2, 3)) == []

    def test_crater_path_between_hilbert_roots(self):
        from cmgate import classpoly as cp

        H = cp.hilbert_mod_p(-15, 61)
        r1, r2 = H.roots
        # 2 splits in Q(sqrt(-15)): a horizontal 2-path must exist
        path = er.isogeny_path(r1, r2, (2,))
        assert path is not None
        cur = r1
        for level, nxt in path:
            assert er.phi_at_j(level, cur).evaluate(nxt).is_zero()
            cur = nxt
        assert cur == r2

    def test_inert_levels_give_no_path(self):
        from cmgate import classpoly as cp

        H = cp.hilbert_mod_p(-15, 61)
        r1, r2 = H.roots
        # 7 is inert in Q(sqrt(-15)): kronecker(-15, 7) = -1
        assert cp.kronecker(-15, 7) == -1
        assert er.isogeny_path(r1, r2, (7,)) is None


def own_provider_a(j):
    """Provider A on j itself, with its own count and walk: no orbit store."""
    jm = ff.minimal_field(j)
    return er._provider_a_uncached(jm, ec.frobenius_data(ec.curve_from_j(jm)))


class TestOrbitKeys:
    # F_{5^k}, k <= 4, and small extensions of 7, 11 and 13
    @pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (5, 3), (5, 4), (7, 3), (11, 2), (13, 2)])
    def test_disc_is_provider_a_on_j_itself(self, p, k):
        # largest encodings first: most answers then come from an orbit entry
        # walked from another conjugate
        clear_caches()
        ctx = ff.make_field(p, k)
        for n in reversed(range(ctx.q)):
            j = ctx.from_encoding(n)
            try:
                own = own_provider_a(j)
            except (SupersingularInput, UnsupportedLevel) as exc:
                with pytest.raises(type(exc)):
                    er.endo_discriminant(j)
                continue
            assert er.endo_discriminant(j) == own

    def test_disc_above_the_table_cut(self):
        clear_caches()
        ctx = ff.make_field(257, 2)
        rng = crc_rng("orbit-key-samples", 257, 2)
        checked = 0
        while checked < 2:
            j = ff.frobenius(ctx.from_encoding(rng.randrange(257, ctx.q)))
            try:
                own = own_provider_a(j)
            except (SupersingularInput, UnsupportedLevel):
                continue
            assert er.endo_discriminant(j) == own
            assert er.endo_discriminant(ff.frobenius(j)) == own
            checked += 1

    def test_provider_b_runs_once_per_orbit_and_d(self, monkeypatch):
        # over F_{13^2} every ordinary j is confirmed by H_D; a confirmed
        # orbit spares its conjugates the check, but never vouches for
        # another orbit claimed with the same D
        clear_caches()
        ctx = ff.make_field(13, 2)
        orbits = {}
        for j in ff.enumerate_elements(ctx):
            if ff.element_degree(j) == 2 and not ec.is_supersingular_j(j):
                orbits.setdefault(ff.orbit_key(j), j)
        (j1, j2), order1 = next(
            ((a, b), er.provider_a_disc(a))
            for a in orbits.values() for b in orbits.values()
            if er.provider_a_disc(a) != er.provider_a_disc(b))
        evaluate, calls = cp.hilbert_eval, []

        def evaluating(D, x):
            calls.append(x)
            return evaluate(D, x)

        monkeypatch.setattr(cp, "hilbert_eval", evaluating)
        assert er.endo_discriminant(j1) == order1
        assert er.endo_discriminant(ff.frobenius(j1)) == order1
        assert len(calls) == 1
        provider = er.provider_a_disc

        def lying(j):
            jm = ff.minimal_field(j)
            return order1 if ff.orbit_key(jm) == ff.orbit_key(j2) else provider(j)

        monkeypatch.setattr(er, "provider_a_disc", lying)
        conjugate = ff.frobenius(j2)
        try:
            with pytest.raises(ProviderDisagreement, match=f"encoding {conjugate.encoding()} "):
                er.endo_discriminant(conjugate)
        finally:
            clear_caches()
