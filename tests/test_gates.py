import json

import pytest

from cmgate import classpoly as cp
from cmgate import _cache, clear_caches, cli
from cmgate import ecurve as ec
from cmgate import endoring as er
from cmgate import ffield as ff
from cmgate import gates as g
from cmgate import polyring as pr
from cmgate.errors import InternalInvariant

F5 = ff.make_field(5, 1)


def curve(terms, verify=True):
    return g.PlaneCurve(pr.BiPoly(F5, terms), verify=verify)


def upoly(*ints):
    return pr.UniPoly.from_ints(F5, ints)


class TestEnumerateCurvePoints:
    def test_diagonal(self):
        pts = list(g.enumerate_curve_points(curve({(1, 0): 1, (0, 1): -1}), 1))
        assert len(pts) == 5
        assert all(x == y for x, y in pts)

    def test_line(self):
        pts = list(g.enumerate_curve_points(
            curve({(1, 0): 1, (0, 1): 1, (0, 0): -1}), 1))
        assert len(pts) == 5
        for x, y in pts:
            assert (x + y) == F5.one()

    def test_hyperbola(self):
        pts = list(g.enumerate_curve_points(curve({(1, 1): 1, (0, 0): -1}), 1))
        assert len(pts) == 4
        for x, y in pts:
            assert (x * y) == F5.one()

    def test_counts_grow_with_field(self):
        C = curve({(1, 0): 1, (0, 2): -1})  # X = Y^2
        assert len(list(g.enumerate_curve_points(C, 1))) == 5
        assert len(list(g.enumerate_curve_points(C, 2))) == 25


class TestCmHypothesis:
    def test_frobenius_curve_passes(self):
        report = g.check_cm_hypothesis(curve({(1, 0): 1, (0, 5): -1}), 3)
        assert report.verdict == "pass"
        assert not report.witnesses

    def test_diagonal_passes_trivially(self):
        report = g.check_cm_hypothesis(curve({(1, 0): 1, (0, 1): -1}), 2)
        assert report.verdict == "pass"

    def test_generic_line_fails_with_witness(self):
        report = g.check_cm_hypothesis(
            curve({(1, 0): 1, (0, 1): 1, (0, 0): -1}), 4, witness_limit=1)
        assert report.verdict == "fail"
        w = report.witnesses[0]
        assert w["disc_x"] != w["disc_y"]

    def test_witnesses_lie_on_curve(self):
        C = curve({(1, 0): 2, (0, 2): 1, (0, 0): 1})  # 2X + Y^2 + 1
        report = g.check_cm_hypothesis(C, 3, witness_limit=3)
        for w in report.witnesses:
            x = ff.make_field(5, w["x"]["deg"]).from_encoding(w["x"]["enc"])
            y = ff.make_field(5, w["y"]["deg"]).from_encoding(w["y"]["enc"])
            assert pr.eval_bi(C.f, x, y).is_zero()


    def test_witness_is_recomputed_apart_from_the_disc_store(self):
        # over F_5 the line has the witness (2, 4) with discriminants -11 and
        # -19; a wrong disc entry for j = 2 must not reach the report
        clear_caches()
        _cache.store("disc")[(5, 1, 2)] = er.CMOrder(-7, 1)
        try:
            with pytest.raises(InternalInvariant, match="disc_x"):
                g.check_cm_hypothesis(curve({(1, 0): 1, (0, 1): 1, (0, 0): -1}), 1)
        finally:
            clear_caches()


class TestFrobeniusConclusion:
    def test_power_25(self):
        got = g.check_frobenius_conclusion(curve({(1, 0): 1, (0, 25): -1}))
        assert got == ("X=Y^p^n", 2)

    def test_unit_multiple_diagonal(self):
        got = g.check_frobenius_conclusion(curve({(1, 0): 3, (0, 1): -3}))
        assert got == ("X=Y^p^n", 0)

    def test_other_direction(self):
        got = g.check_frobenius_conclusion(curve({(5, 0): -1, (0, 1): 1}))
        assert got == ("Y=X^p^n", 1)

    def test_hyperbola_is_not_frobenius(self):
        assert g.check_frobenius_conclusion(curve({(1, 1): 1, (0, 0): -1})) is None

    def test_non_p_power_exponent(self):
        assert g.check_frobenius_conclusion(curve({(1, 0): 1, (0, 2): -1})) is None

    def test_wrong_sign(self):
        assert g.check_frobenius_conclusion(curve({(1, 0): 1, (0, 1): 1})) is None


class TestAndreOortGate:
    def test_positive(self):
        report = g.andre_oort_gate(curve({(1, 0): 1, (0, 5): -1}), 2)
        assert report.verdict == "pass"
        assert report.conclusion == {"form": "X=Y^p^n", "n": 1}
        assert not report.sentinel

    def test_contrapositive(self):
        report = g.andre_oort_gate(
            curve({(1, 0): 1, (0, 1): 1, (0, 0): -1}), 4, witness_limit=1)
        assert report.verdict == "fail"
        assert report.conclusion is None
        assert not report.sentinel

    @pytest.mark.parametrize("p,line", [(5, "X"), (5, "Y"), (7, "X - 6")])
    def test_a_line_through_a_supersingular_j_fails(self, p, line, capsys):
        # every point has a supersingular coordinate, so the whole line would
        # be the exceptional set: one level-1 witness with an ordinary other
        # coordinate, instead of a pass with the falsification sentinel
        argv = ["--format", "json", "ao-gate", "--p", str(p), "--curve", line, "--kmax", "2"]
        assert cli.run(argv) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "fail"
        [w] = out["witnesses"]
        assert w["kind"] == "supersingular-line" and w["k"] == 1
        fixed, other = ("x", "y") if line.startswith("X") else ("y", "x")
        F = ff.make_field(p, 1)
        assert ec.is_supersingular_j(F.from_encoding(w[fixed]["enc"]))
        assert w["disc_" + fixed] is None
        assert w["disc_" + other] == er.endo_discriminant(F.from_encoding(w[other]["enc"])).D

    def test_unclassifiable_points_are_sampled(self, capsys):
        # j = 92 over F_223 has the conductor prime 17, beyond the vendored
        # levels: the sweep reports its ordinary points as skipped, while the
        # isogeny annotation, which needs only d_K from the trace, samples them
        argv = ["--format", "json", "ao-gate", "--p", "223", "--curve", "X - 92", "--kmax", "1"]
        assert cli.run(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "inconclusive"
        assert out["timings"]["work"] == {
            "isogeny_sample_failures": 2, "isogeny_samples": 3,
            "points": 223, "skipped": 216, "supersingular_exceptions": 7}


class TestMultHypothesis:
    def test_frobenius_curve_equal_orders(self):
        report = g.check_mult_hypothesis(curve({(1, 0): 1, (0, 5): -1}), 2, "equal")
        assert report.verdict == "pass"

    def test_inverse_relation_equal_orders(self):
        report = g.check_mult_hypothesis(curve({(1, 1): 1, (0, 0): -1}), 2, "equal")
        assert report.verdict == "pass"

    def test_generic_line_fails_divides(self):
        report = g.check_mult_hypothesis(
            curve({(1, 0): 1, (0, 1): 1, (0, 0): -1}), 3, "divides",
            witness_limit=1)
        assert report.verdict == "fail"
        w = report.witnesses[0]
        assert w["order_x"] % w["order_y"] != 0

    def test_zero_coordinates_skipped(self):
        report = g.check_mult_hypothesis(curve({(1, 0): 1, (0, 1): -1}), 1, "equal")
        assert report.counters.get("zero_coordinate") == 1


class TestSubgroupForm:
    def test_hyperbola(self):
        a, b, zeta = g.detect_subgroup_form(curve({(1, 1): 1, (0, 0): -1}))
        assert (a, b) == (1, 1) and zeta == F5.one()

    def test_mixed_signs(self):
        a, b, zeta = g.detect_subgroup_form(curve({(2, 0): 1, (0, 1): -2}))
        assert (a, b) == (2, -1) and zeta == F5.from_int(2)

    def test_three_terms_absent(self):
        assert g.detect_subgroup_form(
            curve({(1, 0): 1, (0, 1): 1, (0, 0): -1})) is None


class TestModularSupport:
    D_SET = [D for D in range(-3, -41, -1) if D % 4 in (0, 1)]

    def test_frobenius_pair_passes(self):
        pair = g.RingElementPair(upoly(0, 1), upoly(0, 0, 0, 0, 0, 1))
        report = g.modular_support_check(pair, self.D_SET)
        assert not report.witnesses
        assert report.conclusion == {"form": "B=A^p^n", "n": 1}

    def test_shift_pair_fails(self):
        pair = g.RingElementPair(upoly(0, 1), upoly(1, 1))
        report = g.modular_support_check(pair, self.D_SET)
        assert report.verdict == "fail"
        assert any("Q" in w for w in report.witnesses)

    def test_witness_root_is_reverified(self, monkeypatch):
        # a root Q with H_D(A(Q)) != 0 is an internal fault, never a witness
        monkeypatch.setattr(cp, "hilbert_eval", lambda D, x: x.ctx.one())
        with pytest.raises(InternalInvariant, match="H_D"):
            g.modular_support_check(g.RingElementPair(upoly(0, 1), upoly(1, 1)), self.D_SET)

    def test_supersingular_image_witness_is_reverified(self, monkeypatch):
        # -3 is inert at 5, so only the supersingular image is checked; a
        # polynomial with the ordinary root 3 = 1728 must not yield a witness
        monkeypatch.setattr(g, "_supersingular_polynomial", lambda ctx: upoly(-3, 1))
        with pytest.raises(InternalInvariant, match="supersingular"):
            g.modular_support_check(g.RingElementPair(upoly(0, 1), upoly(1, 1)), [-3])

    def test_equal_pair(self):
        pair = g.RingElementPair(upoly(0, 1), upoly(0, 1))
        report = g.modular_support_check(pair, self.D_SET)
        assert report.conclusion == {"form": "A=B^p^n", "n": 0}
        assert not report.witnesses

    def test_frobenius_stability_property(self):
        # A arbitrary small poly, B = A^p: radical of H(A) always divides H(B)
        for coeffs in ((0, 1), (1, 1), (2, 3, 1)):
            A = upoly(*coeffs)
            B = A**5
            report = g.modular_support_check(g.RingElementPair(A, B), self.D_SET)
            assert not report.witnesses


class TestMultSupport:
    def test_square_pair(self):
        report = g.mult_support_check(g.RingElementPair(upoly(0, 1), upoly(0, 0, 1)), 8)
        assert report.verdict == "pass"
        assert report.conclusion == {"k": 2, "m": 0}

    def test_reversed_square_fails(self):
        report = g.mult_support_check(g.RingElementPair(upoly(0, 0, 1), upoly(0, 1)), 8)
        assert report.verdict == "fail"
        assert 4 in [w["n"] for w in report.witnesses]

    def test_frobenius_pair(self):
        report = g.mult_support_check(
            g.RingElementPair(upoly(0, 1), upoly(0, 0, 0, 0, 0, 1)), 6)
        assert report.verdict == "pass"
        assert report.conclusion == {"k": 1, "m": 1}


class TestCycloSupport:
    def test_frobenius_pair(self):
        report = g.cyclo_support_check(
            g.RingElementPair(upoly(0, 1), upoly(0, 0, 0, 0, 0, 1)), 8)
        assert report.verdict == "pass"
        assert report.conclusion == {"form": "B=A^p^n", "n": 1, "sign": "+"}

    def test_square_pair_fails_at_eight(self):
        report = g.cyclo_support_check(g.RingElementPair(upoly(0, 1), upoly(0, 0, 1)), 8)
        assert report.verdict == "fail"
        assert 8 in [w["n"] for w in report.witnesses]

    def test_equal_pair(self):
        report = g.cyclo_support_check(g.RingElementPair(upoly(0, 1), upoly(0, 1)), 6)
        assert report.verdict == "pass"
        assert report.conclusion == {"form": "A=B^p^n", "n": 0, "sign": "+"}


class TestCulprit:
    """A failed radical test with no factor to blame is an internal fault in
    every support gate: InternalInvariant, exit 3, never a gate failure."""

    @pytest.fixture
    def no_factors(self, monkeypatch):
        monkeypatch.setattr(pr, "factor_univariate", lambda f: [])

    def test_mult(self, no_factors):
        with pytest.raises(InternalInvariant):
            g.mult_support_check(g.RingElementPair(upoly(0, 0, 1), upoly(0, 1)), 8)

    def test_cyclo(self, no_factors):
        with pytest.raises(InternalInvariant):
            g.cyclo_support_check(g.RingElementPair(upoly(0, 1), upoly(0, 0, 1)), 8)

    def test_nonsplit_modular(self, no_factors):
        # -3 is inert at 5: only the supersingular root-set check runs
        with pytest.raises(InternalInvariant):
            g.modular_support_check(g.RingElementPair(upoly(0, 1), upoly(1, 1)), [-3])

    @pytest.mark.parametrize("argv", [
        ["support-mult", "--p", "5", "--A", "t^2", "--B", "t", "--nmax", "8"],
        ["support-cyclo", "--p", "5", "--A", "t", "--B", "t^2", "--nmax", "8"],
        ["support-modular", "--p", "5", "--A", "t", "--B", "t+1", "--dmax", "3"],
    ])
    def test_cli_exits_3(self, argv, no_factors, capsys):
        assert cli.run(argv) == 3
        assert "InternalInvariant" in capsys.readouterr().err


class TestSupersingularPolynomial:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_roots_are_the_supersingular_j(self, p, monkeypatch):
        clear_caches()
        try:
            quad = ff.make_field(p, 2)
            supersingular = [j for j in ff.enumerate_elements(quad) if ec.is_supersingular_j(j)]
            clear_caches()

            def no_walk(j, fd):
                raise AssertionError("classified an ordinary j")

            monkeypatch.setattr(er, "_provider_a_uncached", no_walk)
            S = g._supersingular_polynomial(ff.make_field(p, 1))
        finally:
            clear_caches()
        # monic, of degree their number, and vanishing on each: their product
        assert S.coeffs[-1] == S.ctx.one() and S.degree() == len(supersingular)
        assert all(S.lift_to(quad).evaluate(j).is_zero() for j in supersingular)

    def test_a_lost_conjugate_is_an_internal_fault(self, monkeypatch, capsys):
        # F_{37^2} holds one supersingular orbit of degree 2, (521, 854): trace
        # classes that keep one conjugate give a product outside F_37, an
        # internal fault (exit 3), not a usage error (exit 2)
        quad = ff.make_field(37, 2)
        classes = ec.trace_classes

        def one_conjugate(ctx):
            found = classes(ctx)
            if ctx is not quad:
                return found
            return {key: [orbit[:1] if orbit == (521, 854) else orbit for orbit in orbits]
                    for key, orbits in found.items()}

        monkeypatch.setattr(ec, "trace_classes", one_conjugate)
        with pytest.raises(InternalInvariant):
            g._supersingular_polynomial(ff.make_field(37, 1))
        argv = ["support-modular", "--p", "37", "--A", "t", "--B", "t+1", "--dmax", "8"]
        assert cli.run(argv) == 3
        assert "InternalInvariant" in capsys.readouterr().err


class TestGateMonotonicity:
    def test_pass_verdicts_shrink_monotonically(self):
        # a pass at n_max = 8 implies a pass at any smaller range
        pair = g.RingElementPair(upoly(0, 1), upoly(0, 0, 1))
        assert g.mult_support_check(pair, 8).verdict == "pass"
        assert g.mult_support_check(pair, 4).verdict == "pass"

    def test_fail_witnesses_persist_under_growth(self):
        pair = g.RingElementPair(upoly(0, 0, 1), upoly(0, 1))
        small = {w["n"] for w in g.mult_support_check(pair, 4).witnesses}
        large = {w["n"] for w in g.mult_support_check(pair, 8).witnesses}
        assert small and small <= large

    def test_cyclo_witnesses_persist(self):
        pair = g.RingElementPair(upoly(0, 1), upoly(0, 0, 1))
        small = {w["n"] for w in g.cyclo_support_check(pair, 4).witnesses}
        large = {w["n"] for w in g.cyclo_support_check(pair, 8).witnesses}
        assert small <= large


class TestConstructFrobeniusPoints:
    def test_line(self):
        ws = g.construct_frobenius_points(
            curve({(1, 0): 1, (0, 1): 1, (0, 0): -1}), 1, 2)
        assert ws
        for w in ws:
            assert w.n == 1
            assert w.x == w.y ** (5**1)
            assert w.x + w.y == ff.embed(F5.one(), w.y.ctx)

    def test_hyperbola_sixth_roots(self):
        ws = g.construct_frobenius_points(curve({(1, 1): 1, (0, 0): -1}), 1, 6)
        assert ws
        for w in ws:
            assert (w.x * w.y) == ff.embed(F5.one(), w.y.ctx)
            assert w.shared_order in (1, 2, 3, 6)

    def test_diagonal_degenerate(self):
        # X - Y: substituting X = Y^(p^n) leaves Y^(p^n) - Y, roots = F_(p^n)
        ws = g.construct_frobenius_points(curve({(1, 0): 1, (0, 1): -1}), 1, 3)
        assert len(ws) == 3
        for w in ws:
            assert w.x == w.y

    def test_lines_rejected(self):
        with pytest.raises(ValueError):
            g.construct_frobenius_points(curve({(1, 0): 1, (0, 0): -2}), 2, 1)

    def test_order_preservation_is_rechecked(self):
        ws = g.construct_frobenius_points(
            curve({(2, 0): 1, (0, 1): 1, (0, 0): -2}), 3, 3)
        assert ws
        for w in ws:
            assert ff.multiplicative_order(w.x) == w.shared_order
            assert ff.multiplicative_order(w.y) == w.shared_order


class TestWorkBudget:
    def test_line_gate_works_once_per_orbit(self, monkeypatch, capsys):
        # F_{5^k}, k <= 4, has 5 + 10 + 40 + 150 = 205 Frobenius orbits:
        # conjugate coordinates share their count, their provider-A walk and
        # their H_D check; re-verifying the witnesses walks once more per
        # orbit, apart from the stores
        clear_caches()
        calls = {"counts": 0, "walks": 0, "rewalks": 0, "hilbert_eval": 0}
        count, walk, evaluate = ec.count_points, er._provider_a_uncached, cp.hilbert_eval
        recompute = g._recomputed_disc
        reverifying = []

        def counting(E):
            calls["counts"] += 1
            return count(E)

        def walking(j, fd):
            calls["rewalks" if reverifying else "walks"] += 1
            return walk(j, fd)

        def recomputing(x, memo):
            reverifying.append(x)
            try:
                return recompute(x, memo)
            finally:
                reverifying.pop()

        def evaluating(D, x):
            calls["hilbert_eval"] += 1
            return evaluate(D, x)

        monkeypatch.setattr(ec, "count_points", counting)
        monkeypatch.setattr(er, "_provider_a_uncached", walking)
        monkeypatch.setattr(cp, "hilbert_eval", evaluating)
        monkeypatch.setattr(g, "_recomputed_disc", recomputing)
        try:
            code = cli.run(["ao-gate", "--p", "5", "--curve", "X + Y - 1", "--kmax", "4"])
        finally:
            clear_caches()
        assert code == 1  # the line has CM-mismatch witnesses
        assert "fail" in capsys.readouterr().out
        assert 0 < calls["counts"] <= 205
        assert 0 < calls["walks"] <= 205
        assert 0 < calls["rewalks"] <= 205
        assert 0 < calls["hilbert_eval"] <= 205
