import pytest

from cmgate import classpoly as cp
from cmgate import clear_caches
from cmgate import ecurve as ec
from cmgate import endoring as er
from cmgate import ffield as ff
from cmgate import polyring
from cmgate.acceptance import _admissible_primes
from cmgate.errors import (
    BothZero,
    InternalInvariant,
    NotADiscriminant,
    PDividesD,
    PInert,
    ProviderDisagreement,
    SupersingularInput,
    UnsupportedLevel,
)
from cmgate._numutil import is_prime

F5 = ff.make_field(5, 1)
F7 = ff.make_field(7, 1)

# classical class numbers (Cox, "Primes of the form x^2 + ny^2", tables)
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1, -19: 1,
    -20: 2, -23: 3, -24: 2, -27: 1, -28: 1, -31: 3, -32: 2, -35: 2,
    -36: 2, -39: 4, -40: 2, -43: 1, -47: 5, -48: 2, -51: 2, -52: 2,
    -56: 4, -67: 1, -71: 7, -84: 4, -163: 1,
}


class TestKronecker:
    def test_minus7_splits_at_2(self):
        assert cp.kronecker(-7, 2) == 1

    def test_minus7_inert_at_5(self):
        assert cp.kronecker(-7, 5) == -1

    def test_unit_modulus(self):
        for a in (-9, -1, 0, 3, 14):
            assert cp.kronecker(a, 1) == 1

    def test_both_zero(self):
        with pytest.raises(BothZero):
            cp.kronecker(0, 0)

    def test_agrees_with_euler_criterion(self):
        for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 59, 97):
            for a in range(-50, 51):
                e = pow(a % q, (q - 1) // 2, q)
                expected = 0 if a % q == 0 else (1 if e == 1 else -1)
                assert cp.kronecker(a, q) == expected, (a, q)

    def test_multiplicative(self):
        for n in (15, 21, 35):
            for a in range(-10, 11):
                parts = 1
                m = n
                for prime in (3, 5, 7):
                    while m % prime == 0:
                        parts *= cp.kronecker(a, prime)
                        m //= prime
                assert cp.kronecker(a, n) == parts


class TestReducedForms:
    def test_d_minus3(self):
        assert [f.as_tuple() for f in cp.reduced_forms(-3)] == [(1, 1, 1)]

    def test_d_minus23(self):
        got = {f.as_tuple() for f in cp.reduced_forms(-23)}
        assert got == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_not_a_discriminant(self):
        with pytest.raises(NotADiscriminant):
            cp.reduced_forms(-5)
        with pytest.raises(NotADiscriminant):
            cp.reduced_forms(4)

    def test_forms_have_right_discriminant(self):
        for D in (-15, -20, -23, -56, -71):
            for form in cp.reduced_forms(D):
                assert form.b * form.b - 4 * form.a * form.c == D

    def test_class_numbers_match_classical_tables(self):
        for D, h in KNOWN_CLASS_NUMBERS.items():
            assert cp.class_number(D) == h, D


class TestClassOrderOfP:
    def test_split_roots_in_prime_field(self):
        assert cp.class_order_of_p(-15, 61) == 1
        assert cp.class_order_of_p(-23, 59) == 1

    def test_order_three_case(self):
        assert cp.class_order_of_p(-23, 13) == 3

    def test_divides_class_number(self):
        for D in (-15, -20, -23, -31, -40):
            h = cp.class_number(D)
            for p in (5, 7, 11, 13, 17, 19, 23, 29):
                if D % p == 0 or cp.kronecker(D, p) != 1:
                    continue
                m = cp.class_order_of_p(D, p)
                if m is not None:
                    assert h % m == 0


class TestHilbertModP:
    def test_d3_p7(self):
        H = cp.hilbert_mod_p(-3, 7)
        assert [c.coeffs[0] for c in H.poly.coeffs] == [0, 1]  # T

    def test_d4_p5(self):
        H = cp.hilbert_mod_p(-4, 5)
        assert [c.coeffs[0] for c in H.poly.coeffs] == [2, 1]  # T - 3

    def test_d15_p61_degree_and_membership(self):
        H = cp.hilbert_mod_p(-15, 61)
        assert H.poly.degree() == cp.class_number(-15) == 2
        for r in H.roots:
            assert er.endo_discriminant(r).D == -15

    def test_inert_prime_rejected(self):
        assert cp.kronecker(-4, 7) == -1
        with pytest.raises(PInert):
            cp.hilbert_mod_p(-4, 7)

    def test_p_divides_d_rejected(self):
        with pytest.raises(PDividesD):
            cp.hilbert_mod_p(-20, 5)

    def test_against_reference_table(self):
        # per D, the first two primes whose root field has at most 4,096
        # elements and the first whose root field lies in (4,096, 2^16]
        table = cp.reference_table()
        assert len(table) >= 20
        for D, coeffs in sorted(table.items(), reverse=True)[:10]:
            small, large = [], []
            p = 5
            while (len(small) < 2 or not large) and p < ff._TABLE_MAX:
                if is_prime(p) and D % p and cp.kronecker(D, p) == 1:
                    m = cp.class_order_of_p(D, p)
                    if m is not None:
                        (small if p**m <= 4096 else large).append(p)
                p += 2
            assert len(small) >= 2 and large, D
            for p in small[:2] + large[:1]:
                H = cp.hilbert_mod_p(D, p)
                assert [c.coeffs[0] for c in H.poly.coeffs] == [
                    c % p for c in coeffs
                ], (D, p)

    def test_galois_stable_roots(self):
        H = cp.hilbert_mod_p(-23, 13)
        encs = {r.encoding() for r in H.roots}
        for r in H.roots:
            assert ff.frobenius(r).encoding() in encs

    def test_sampled_collection_path(self):
        # 19^3 = 6859 lies above the auto-check bound and within the tables:
        # the sweep collects the roots there too, and the result must match
        # the classical polynomial reduced mod p
        assert cp.class_order_of_p(-31, 19) == 3
        assert cp.AUTO_CHECK_MAX_Q < 19**3 <= ff._TABLE_MAX
        H = cp.hilbert_mod_p(-31, 19)
        ref = cp.reference_table()[-31]
        assert [c.coeffs[0] for c in H.poly.coeffs] == [c % 19 for c in ref]

    def test_sampled_path_counts_by_bsgs(self, monkeypatch):
        # the trace table gives the trace of every j of degree 3 in
        # F_{19^3}: no O(q) character scan runs over the root field, only
        # over F_19 for the orbits of the subfield
        clear_caches()
        calls = []
        naive = ec._naive_count
        monkeypatch.setattr(ec, "_naive_count", lambda E: calls.append(E.ctx.q) or naive(E))
        H = cp.hilbert_mod_p(-31, 19)
        assert all(q < 19**3 for q in calls)
        ref = cp.reference_table()[-31]
        assert [c.coeffs[0] for c in H.poly.coeffs] == [c % 19 for c in ref]


class TestCompleteSampler:
    # the largest root fields the sweep serves: two prime fields and F_{251^2}
    @pytest.mark.parametrize("D,p", [(-7, 25097), (-7, 40009), (-24, 251)])
    def test_finds_the_roots_draws_alone_missed(self, D, p):
        H = cp.hilbert_mod_p(D, p)
        assert H.root_ctx.q > 25000
        ref = cp.reference_table()[D]
        assert [c.coeffs[0] for c in H.poly.coeffs] == [c % p for c in ref]

    def test_exhausted_field_names_the_unclassifiable_root(self):
        # H_-44 mod 23 has its roots in F_{23^3}; provider A cannot classify
        # every candidate there, so the whole field yields fewer than h roots
        clear_caches()
        try:
            with pytest.raises(UnsupportedLevel, match="unclassifiable candidate root"):
                cp.hilbert_mod_p(-44, 23)
        finally:
            clear_caches()

    @pytest.mark.parametrize("answer,error", [
        ("unsupported", UnsupportedLevel), ("other D", ProviderDisagreement)])
    def test_exhausted_field_with_patched_provider(self, answer, error, monkeypatch):
        # a provider A that classifies no candidate as D leaves the sweep
        # of F_{19^3} short of roots: an unclassifiable skip is named as
        # such, and without one the root count fails the degree law
        visited = []

        def provider(j):
            visited.append(j.encoding())
            if answer == "unsupported":
                raise UnsupportedLevel("patched")
            return er.CMOrder(*er.split_discriminant(-31 * 4))

        clear_caches()
        monkeypatch.setattr(er, "provider_a_disc", provider)
        try:
            with pytest.raises(error):
                cp.hilbert_mod_p(-31, 19)
        finally:
            clear_caches()
        # every Frobenius orbit of degree 3 with a trace of D = -31 was
        # classified once, on its least conjugate
        ctx = ff.make_field(19, 3)
        traces = cp._representation_traces(-31, ctx.q, 19)
        wanted = sorted(
            n for n in range(ctx.q)
            if ff.element_degree(ctx.from_encoding(n)) == 3
            and n == min(ff.frobenius_orbit(ctx.from_encoding(n)))
            and abs(ec.trace_of_j(ctx.from_encoding(n)).t) in traces)
        assert sorted(visited) == wanted


class TestDegreeLawFaults:
    @staticmethod
    def mislabelled_neighbor(H):
        """(k, encoding) of the least conjugate of the first rational
        neighbour of a root of H, by level, whose true discriminant is not
        H.D: the sweep asks provider A once per orbit, on that conjugate."""
        for level in er.supported_levels():
            for r in H.roots:
                for nb in er._rational_neighbors(r, level):
                    nb = ff.minimal_field(nb)
                    try:
                        if er.provider_a_disc(nb).D != H.D:
                            return nb.ctx.k, min(ff.frobenius_orbit(nb))
                    except (SupersingularInput, UnsupportedLevel):
                        continue
        raise LookupError("no neighbour of another discriminant")

    # on F_{103^2} the neighbour is a j of D = -160, on F_{43^2} one of
    # D = -180; an orbit mislabelled with D must give roots too many, never
    # a polynomial built from the first h roots found
    @pytest.mark.parametrize("D,p", [(-40, 103), (-20, 43)])
    def test_mislabelled_neighbor_is_a_root_too_many(self, D, p, monkeypatch):
        clear_caches()
        fake = self.mislabelled_neighbor(cp.hilbert_mod_p(D, p))
        provider = er.provider_a_disc
        order = er.CMOrder(*er.split_discriminant(D))

        def lying(j):
            return order if (j.ctx.k, j.encoding()) == fake else provider(j)

        monkeypatch.setattr(er, "provider_a_disc", lying)
        clear_caches()
        try:
            with pytest.raises(ProviderDisagreement, match="class number is 2"):
                cp.hilbert_mod_p(D, p)
        finally:
            clear_caches()

    def test_a_root_set_that_is_not_galois_stable_is_an_internal_fault(self, monkeypatch):
        # H_-15 mod 17 has the conjugate roots r, r^17 in F_{17^2}: with r^17
        # swapped for another j of degree 2 the count still matches the class
        # number, but the product of the T - r leaves F_17
        clear_caches()
        sweep = cp._collect_roots_sweep

        def swapped(D, p, m, h):
            r, conjugate = sweep(D, p, m, h)
            other = next(x for x in ff.enumerate_elements(r.ctx)
                         if ff.element_degree(x) == 2 and x not in (r, conjugate))
            return [r, other]

        monkeypatch.setattr(cp, "_collect_roots_sweep", swapped)
        try:
            with pytest.raises(InternalInvariant):
                cp.hilbert_mod_p(-15, 17)
        finally:
            clear_caches()


class TestElementBudget:
    def test_sweep_runs_on_int_lists(self, monkeypatch):
        # the volcano walks and point orders behind H_-20 mod 43 run on int
        # lists; on element objects the same call builds over a million
        # field elements
        clear_caches()
        built = []
        init = ff._EncodedElement.__init__

        def counting(self, ctx, n):
            built.append(None)
            init(self, ctx, n)

        monkeypatch.setattr(ff._EncodedElement, "__init__", counting)
        try:
            H = cp.hilbert_mod_p(-20, 43)
        finally:
            clear_caches()
        ref = cp.reference_table()[-20]
        assert [c.coeffs[0] for c in H.poly.coeffs] == [c % 43 for c in ref]
        assert len(built) < 200_000


# the sweep pairs of the benchmark's hilbert-cold workload, and every D from
# -3 to -100 at its first admissible prime (criterion 3's choice of primes)
SWEEP_PAIRS = sorted(
    {(-7, 11), (-35, 29), (-23, 59), (-31, 7), (-15, 17), (-20, 23), (-24, 29), (-20, 43)}
    | {(D, _admissible_primes(D, 1)[0]) for D in range(-3, -101, -1) if D % 4 in (0, 1)},
    reverse=True,
)


class TestTargetedSweep:
    @pytest.mark.parametrize("D,p", SWEEP_PAIRS)
    def test_roots_are_the_full_map_labels(self, D, p):
        # the sweep classifies only the j of degree m whose |t| can carry D;
        # its roots must be exactly the j that classifying every j labels D
        H = cp.hilbert_mod_p(D, p)
        ctx = H.root_ctx
        assert ctx.q <= 4096  # the whole-field map below stays cheap
        full = er.ordinary_disc_map(ctx)
        assert len(full) == ctx.q
        labelled = sorted(
            enc for enc, val in full.items() if isinstance(val, er.CMOrder) and val.D == D
        )
        assert [r.encoding() for r in H.roots] == labelled
        traces = cp._representation_traces(D, ctx.q, p)
        wanted = {
            enc: val for enc, val in full.items()
            if ff.element_degree(ctx.from_encoding(enc)) == ctx.k
            and abs(ec.trace_of_j(ctx.from_encoding(enc)).t) in traces
        }
        assert er.ordinary_disc_map(ctx, traces) == wanted

    @pytest.mark.parametrize("p,k", [(7, 3), (13, 2), (43, 2), (5, 4)])
    def test_trace_classes_partition_the_field(self, p, k):
        ctx = ff.make_field(p, k)
        classes = ec.trace_classes(ctx)
        covered = []
        for (d, t), orbits in classes.items():
            assert list(orbits) == sorted(orbits, key=lambda orbit: orbit[0])
            for orbit in orbits:
                assert orbit[0] == min(orbit) and len(orbit) == d
                x = ctx.from_encoding(orbit[0])
                assert ff.element_degree(x) == d
                assert abs(ec.trace_of_j(ff.minimal_field(x)).t) == t
                for enc, nxt in zip(orbit, orbit[1:] + orbit[:1]):
                    assert ff.frobenius(ctx.from_encoding(enc)).encoding() == nxt
                covered.extend(orbit)
        assert sorted(covered) == list(range(ctx.q))


class TestWorkBudget:
    def test_sweep_classifies_only_candidates(self, monkeypatch):
        # classifying every j of F_{43^2} takes 786 volcano walks and 883
        # rational-root computations; the one trace class that can carry
        # D = -20 (|t| = 76) needs a few
        clear_caches()
        calls = {"volcano": 0, "roots": 0}
        walk = er.volcano_level
        roots = polyring.kernel_rational_roots

        def counting_walk(*args):
            calls["volcano"] += 1
            return walk(*args)

        def counting_roots(*args):
            calls["roots"] += 1
            return roots(*args)

        monkeypatch.setattr(er, "volcano_level", counting_walk)
        monkeypatch.setattr(polyring, "kernel_rational_roots", counting_roots)
        try:
            H = cp.hilbert_mod_p(-20, 43)
        finally:
            clear_caches()
        ref = cp.reference_table()[-20]
        assert [c.coeffs[0] for c in H.poly.coeffs] == [c % 43 for c in ref]
        assert 0 < calls["volcano"] <= 50
        assert 0 < calls["roots"] <= 50


class TestHilbertEval:
    def test_zero_at_cm_point(self):
        assert cp.hilbert_eval(-3, F7.zero()).is_zero()
        assert cp.hilbert_eval(-4, F5.from_int(3)).is_zero()

    def test_nonzero_off_cm_point(self):
        v = cp.hilbert_eval(-4, F5.zero())
        assert v == F5.from_int(2)  # T - 3 at 0


class TestFindTestDiscriminant:
    def test_inert5_split2(self):
        assert cp.find_test_discriminant(5, 2, 1) == -7

    def test_inert2_split5(self):
        assert cp.find_test_discriminant(2, 5, 1) == -11

    def test_postconditions(self):
        # ell inert (the default) and ell split (the sharpness controls)
        for ell_symbol in (-1, 1):
            for ell, p, d_min in ((2, 7, 10), (3, 11, 30), (7, 13, 5)):
                D = cp.find_test_discriminant(ell, p, d_min, ell_symbol=ell_symbol)
                assert D < 0 and -D > d_min
                assert is_prime(-D) and (-D) % 4 == 3
                assert cp.kronecker(D, ell) == ell_symbol
                assert cp.kronecker(D, p) == 1


class TestInertObstruction:
    def test_d7_ell5_p11(self):
        assert cp.inert_obstruction_check(-7, 5, 11) is True

    def test_d23_ell5_p59(self):
        assert cp.kronecker(-23, 5) == -1
        assert cp.inert_obstruction_check(-23, 5, 59) is True

    def test_sharpness_split_ell_fails(self):
        # 2 splits for -23, so horizontal 2-isogenies exist among the roots
        assert cp.kronecker(-23, 2) == 1
        assert cp.inert_obstruction_check(-23, 2, 59) is False
