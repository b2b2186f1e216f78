import pytest

from cmgate import clear_caches
from cmgate import ffield as ff
from cmgate import polyring as pr
from cmgate.errors import (
    ConstantPolynomial,
    InternalInvariant,
    UnsupportedCurveDegree,
    ZeroPolynomial,
)
from cmgate._numutil import crc_rng

F5 = ff.make_field(5, 1)
F25 = ff.make_field(5, 2)
F7 = ff.make_field(7, 1)


def U(ctx, *ints):
    return pr.UniPoly.from_ints(ctx, ints)


def B(ctx, terms):
    return pr.BiPoly(ctx, terms)


def refactor_product(f, factors):
    prod = pr.UniPoly(f.ctx, f.coeffs[-1:])
    for g, m in factors:
        for _ in range(m):
            prod = prod * g
    return prod


class TestFactorUnivariate:
    def test_difference_of_squares(self):
        f = U(F5, -1, 0, 1)  # T^2 - 1
        factors = pr.factor_univariate(f)
        assert {g.key() for g, _ in factors} == {U(F5, -1, 1).key(), U(F5, 1, 1).key()}
        assert all(m == 1 for _, m in factors)
        assert refactor_product(f, factors) == f

    def test_irreducible_quadratic(self):
        f = U(F5, 2, 0, 1)  # T^2 + 2: no roots among 0..4
        assert all((a * a + 2) % 5 for a in range(5))
        assert pr.factor_univariate(f) == [(f, 1)]

    def test_cube(self):
        lin = U(F5, -2, 1)
        f = lin * lin * lin
        assert pr.factor_univariate(f) == [(lin, 1 * 3)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            pr.factor_univariate(pr.UniPoly.zero(F5))

    @pytest.mark.parametrize("ctx,seed", [(F5, 1), (F5, 2), (F25, 3), (F7, 4)])
    def test_refactor_roundtrip_random(self, ctx, seed):
        rng = crc_rng("factor-roundtrip", ctx.p, ctx.k, seed)
        for _ in range(8):
            deg = rng.randrange(2, 11)
            coeffs = [ctx.from_encoding(rng.randrange(ctx.q)) for _ in range(deg)]
            coeffs.append(ctx.one())
            f = pr.UniPoly(ctx, coeffs)
            assert refactor_product(f, pr.factor_univariate(f)) == f

    def test_pth_power_multiplicity(self):
        lin = U(F5, 1, 1)
        f = pr.UniPoly.one(F5)
        for _ in range(5):
            f = f * lin
        assert pr.factor_univariate(f) == [(lin, 5)]

    def test_deterministic_order(self):
        f = U(F5, -1, 0, 0, 0, 1)  # T^4 - 1
        assert pr.factor_univariate(f) == pr.factor_univariate(f)


class TestRootsIn:
    def test_t2_minus_1(self):
        roots = pr.roots_in(U(F5, -1, 0, 1), 1)
        assert sorted(r.coeffs[0] for r in roots) == [1, 4]

    def test_t2_plus_2_needs_quadratic_extension(self):
        f = U(F5, 2, 0, 1)
        assert pr.roots_in(f, 1) == []
        roots = pr.roots_in(f, 2)
        assert len(roots) == 2
        assert roots[0] == -roots[1]
        for r in roots:
            assert (r * r + ff.embed(F5.from_int(2), F25)).is_zero()

    def test_artin_schreier_like_quintic(self):
        # T^5 + T - 1 over F_5: derivative 1, so separable with 5 roots total
        f = U(F5, -1, 1, 0, 0, 0, 1)
        factors = pr.factor_univariate(f)
        assert sum(g.degree() * m for g, m in factors) == 5
        assert all(m == 1 for _, m in factors)
        total = 0
        seen_k = sorted({g.degree() for g, _ in factors})
        for k in seen_k:
            rts = pr.roots_in(f, k)
            for r in rts:
                assert ff.element_degree(r) in seen_k
            total += sum(1 for r in rts if ff.element_degree(r) == k)
        assert total == 5

    def test_roots_subset_under_embedding(self):
        f = U(F5, -1, 0, 1) * U(F5, 2, 0, 1)
        r1 = pr.roots_in(f, 1)
        r2 = pr.roots_in(f, 2)
        images = {ff.embed(r, F25).coeffs for r in r1}
        assert images <= {r.coeffs for r in r2}
        assert len(r2) == 4


def gcd_route_roots(f, k):
    """The roots of f in F_{p^k} by gcd(f, T^q - T) and its split, which
    roots_in skips for a linear f over a subfield."""
    target = ff.make_field(f.ctx.p, k)
    K = pr.kernel(target)
    lin = pr._linear_part(K, K.to_list(f.lift_to(target)), target.q)
    return sorted((K.elem(r) for r in pr._roots_of_linear_part(K, lin)),
                  key=lambda r: r.encoding())


class TestLinearRoots:
    # (p, degree of f's field, degree of the target): f's field is the
    # target or one of its subfields
    @pytest.mark.parametrize("p,base_k,k", [
        (5, 1, 1), (5, 2, 2), (5, 3, 3), (5, 4, 4), (5, 1, 2), (5, 1, 4), (5, 2, 4),
        (7, 2, 2), (7, 1, 2), (257, 2, 2), (257, 1, 2),
    ])
    def test_matches_gcd_route(self, p, base_k, k):
        base = ff.make_field(p, base_k)
        rng = crc_rng("linear-roots", p, base_k, k)
        for _ in range(20):
            c0 = base.from_encoding(rng.randrange(base.q))
            c1 = base.from_encoding(rng.randrange(1, base.q))
            f = pr.UniPoly(base, [c0, c1])
            roots = pr.roots_in(f, k)
            assert len(roots) == 1 and roots[0].ctx is ff.make_field(p, k)
            assert roots == gcd_route_roots(f, k)

    def test_root_outside_the_target(self):
        # over F_25 with roots asked in F_5 the gcd route still runs
        a = F25.gen()
        assert pr.roots_in(pr.UniPoly(F25, [-a, F25.one()]), 1) == []
        assert pr.roots_in(pr.UniPoly(F25, [F25.from_int(-3), F25.one()]), 1) == [F5.from_int(3)]


class ObjectKernel:
    """The element-object reference for every context: F_q[T] on lists of
    field elements by schoolbook loops, with no kernel of polyring in it.
    Each list kernel, and UniPoly's arithmetic, is checked against it."""

    def __init__(self, ctx):
        self.ctx, self.zero, self.one = ctx, ctx.zero(), ctx.one()

    def scalar(self, x):
        return x

    def elem(self, c):
        return c

    def encoding(self, c):
        return c.encoding()

    def from_encoding(self, n):
        return self.ctx.from_encoding(n)

    def neg(self, c):
        return -c

    def to_list(self, f):
        return list(f.coeffs)

    def to_poly(self, a):
        return pr.UniPoly(self.ctx, a)

    def sub(self, a, b):
        n = max(len(a), len(b))
        a, b = a + [self.zero] * (n - len(a)), b + [self.zero] * (n - len(b))
        return pr._trim([x - y for x, y in zip(a, b)], self.zero)

    def mul(self, a, b):
        out = [self.zero] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return pr._trim(out, self.zero)

    def divmod(self, a, b):
        rem, db, inv = a[:], len(b) - 1, b[-1] ** -1
        quo = [self.zero] * max(0, len(rem) - db)
        while len(rem) - 1 >= db:
            c = rem[-1] * inv
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i, y in enumerate(b):
                rem[shift + i] = rem[shift + i] - c * y
            pr._trim(rem, self.zero)
        return pr._trim(quo, self.zero), rem

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a) if a else a

    def powmod(self, a, e, m):
        result, base = [self.one], self.divmod(a, m)[1]
        while e:
            if e & 1:
                result = self.divmod(self.mul(result, base), m)[1]
            base = self.divmod(self.mul(base, base), m)[1]
            e >>= 1
        return result

    def monic(self, a):
        inv = a[-1] ** -1
        return [c * inv for c in a]

    def derivative(self, a):
        return pr._trim([c.scale(i) for i, c in enumerate(a)][1:], self.zero)

    def pth_root(self, a):
        s = self.ctx.p ** (self.ctx.k - 1)  # x -> x^(p^(k-1)) inverts Frobenius
        return [c**s for c in a[:: self.ctx.p]]

    def evaluate_rows(self, rows, x):
        out = []
        for row in rows:
            acc = self.zero
            for c in reversed(row):
                acc = acc * x + c
            out.append(acc)
        return pr._trim(out, self.zero)


def object_pow_mod(f, e, modulus):
    """f^e mod modulus by the element-object square-and-multiply."""
    R = ObjectKernel(f.ctx)
    return R.to_poly(R.powmod(R.to_list(f), e, R.to_list(modulus)))


def pow_mod(f, e, modulus):
    """f^e mod modulus through the kernel of f's context."""
    K = pr.kernel(f.ctx)
    return K.to_poly(K.powmod(K.to_list(f), e, K.to_list(modulus)))


def random_poly(ctx, rng, degree, lead=None):
    coeffs = [ctx.from_encoding(rng.randrange(ctx.q)) for _ in range(degree)]
    coeffs.append(lead if lead is not None else ctx.from_encoding(rng.randrange(1, ctx.q)))
    return pr.UniPoly(ctx, coeffs)


class TestTablePowMod:
    # k = 1 and k >= 2 fields of the suite, the largest tabled fields, a
    # prime field above the table cut (residues need no tables) and
    # extension fields above it (power-basis tuples)
    @pytest.mark.parametrize("p,k", [
        (5, 1), (7, 1), (13, 1), (19, 1), (103, 1), (65521, 1), (65537, 1),
        (5, 2), (7, 2), (13, 2), (43, 2), (103, 2), (5, 3), (19, 3), (5, 4), (5, 6), (251, 2),
        (257, 2), (41, 3), (5, 7),
    ])
    def test_matches_object_square_and_multiply(self, p, k):
        ctx = ff.make_field(p, k)
        rng = crc_rng("table-pow-mod", p, k)
        for trial in range(10):
            dm = 1 if trial < 3 else rng.randrange(2, 9)
            # monic and non-monic moduli; bases below, at and above their degree
            lead = ctx.one() if trial % 2 else None
            modulus = random_poly(ctx, rng, dm, lead)
            base = random_poly(ctx, rng, rng.randrange(0, 2 * dm + 3))
            q = ctx.q
            for e in (0, 1, 2, q, (q**dm - 1) // 2, rng.randrange(q**3)):
                assert pow_mod(base, e, modulus) == object_pow_mod(base, e, modulus), (trial, e)

    def test_edge_operands(self):
        for ctx in (F7, F25):
            m = U(ctx, 3, 1, 2)
            assert pow_mod(pr.UniPoly.zero(ctx), 0, m) == pr.UniPoly.one(ctx)
            assert pow_mod(pr.UniPoly.zero(ctx), 5, m).is_zero()
            # a constant modulus leaves nothing but the e = 0 power
            c = U(ctx, 2)
            assert pow_mod(pr.UniPoly.x(ctx), 3, c).is_zero()
            assert pow_mod(pr.UniPoly.x(ctx), 0, c) == pr.UniPoly.one(ctx)

    def test_frobenius_power_is_identity_on_roots(self):
        # T^q = T modulo a product of distinct linear factors over F_q
        ctx = ff.make_field(13, 2)
        f = pr.UniPoly.one(ctx)
        for n in (0, 1, 7, 100, 168):
            f = f * pr.UniPoly(ctx, [-ctx.from_encoding(n), ctx.one()])
        x = pr.UniPoly.x(ctx)
        assert pow_mod(x, ctx.q, f) == x


class TestPowers:
    FIELDS = [(5, 1), (5, 2), (5, 3), (103, 1), (257, 2)]

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_pow_matches_repeated_product(self, p, k):
        ctx = ff.make_field(p, k)
        rng = crc_rng("uni-pow", p, k)
        for deg in (0, 1, 3):
            f = random_poly(ctx, rng, deg)
            acc = pr.UniPoly.one(ctx)
            for e in range(10):
                assert f**e == acc
                acc = acc * f
        assert pr.UniPoly.zero(ctx) ** 0 == pr.UniPoly.one(ctx)
        with pytest.raises(ValueError):
            pr.UniPoly.x(ctx) ** -1

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_pth_power_matches_pow(self, p, k):
        # coefficient-wise Frobenius with exponents spread by p is f^p
        ctx = ff.make_field(p, k)
        rng = crc_rng("uni-pth-power", p, k)
        for deg in (0, 1, 2, 4):
            f = random_poly(ctx, rng, deg)
            assert f.pth_power() == f**p
        assert pr.UniPoly.zero(ctx).pth_power().is_zero()


class TestEqualDegreeSplit:
    def test_factor_of_another_degree_raises(self):
        # T^2 + 2 is irreducible over F_5, so no draw splits it into
        # linear factors; the split must give up rather than loop
        K = pr.kernel(F5)
        with pytest.raises(InternalInvariant):
            pr._equal_degree_split(K, K.to_list(U(F5, 2, 0, 1)), 1)


class TestRationalRoots:
    @staticmethod
    def linear_factors(f):
        """Oracle: the degree-1 factors of the full factorization."""
        total, roots = 0, []
        for g, mult in pr.factor_univariate(f):
            if g.degree() == 1:
                total += mult
                roots.append(-g.coeffs[0])
        return total, sorted(roots, key=lambda r: r.encoding())

    @pytest.mark.parametrize("p", [7, 13])
    def test_phi_at_every_j_of_quadratic_field(self, p):
        from cmgate import endoring as er

        ctx = ff.make_field(p, 2)
        repeated = 0
        for level in er.supported_levels():
            if level == p:
                continue
            for j in ff.enumerate_elements(ctx):  # 0 and 1728 included
                f = er.phi_at_j(level, j)
                total, roots = pr.rational_roots(f)
                assert (total, roots) == self.linear_factors(f), (level, j)
                repeated += total > len(roots)
        assert repeated  # some Phi_l(j, T) has a repeated rational root

    def test_sampled_j_above_the_table_cut(self, monkeypatch):
        from cmgate import endoring as er

        def run():
            out = []
            for p, k in ((257, 2), (41, 3)):
                ctx = ff.make_field(p, k)
                assert ctx.log is None
                rng = crc_rng("rational-roots-big", p, k)
                for level in (2, 3, 13):
                    for _ in range(3):
                        f = er.phi_at_j(level, ctx.from_encoding(rng.randrange(ctx.q)))
                        out.append((f, pr.rational_roots(f)))
            return out

        fast = run()
        for f, roots in fast:
            assert roots == self.linear_factors(f)
        # the Phi_l(j, T) and their roots again on element objects
        clear_caches()
        monkeypatch.setattr(pr, "kernel", ObjectKernel)
        slow = run()
        clear_caches()
        assert fast == slow

    def test_multiplicities_and_constants(self):
        lin1, lin2 = U(F7, -2, 1), U(F7, -3, 1)
        irr = U(F7, 1, 0, 1)  # T^2 + 1 has no root in F_7
        f = lin1 * lin1 * lin1 * lin2 * irr * irr
        total, roots = pr.rational_roots(f * U(F7, 3))
        assert total == 4 and [r.lift() for r in roots] == [2, 3]
        assert pr.rational_roots(U(F7, 5)) == (0, [])
        with pytest.raises(ZeroPolynomial):
            pr.rational_roots(pr.UniPoly.zero(F7))


class TestRadicalDivides:
    def test_same_radical(self):
        lin = U(F5, -1, 1)
        f = lin * lin * lin
        assert pr.radical_divides(f, lin)

    def test_missing_factor(self):
        f = U(F5, -1, 1) * U(F5, -2, 1)
        g = U(F5, -1, 1) * U(F5, -1, 1)
        assert not pr.radical_divides(f, g)
        # missing from a squarefree part after the first: multiplicity 2, and p
        for e in (2, 5):
            assert not pr.radical_divides(U(F5, -1, 1) * U(F5, -2, 1) ** e, g)

    def test_irreducible_divisor(self):
        q = U(F5, 2, 0, 1)
        assert pr.radical_divides(q, q * U(F5, -1, 1))

    def test_zero_f_rejected(self):
        with pytest.raises(ZeroPolynomial):
            pr.radical_divides(pr.UniPoly.zero(F5), pr.UniPoly.one(F5))

    def test_zero_g_accepts_everything(self):
        assert pr.radical_divides(U(F5, 1, 1), pr.UniPoly.zero(F5))

    def test_agrees_with_bruteforce_factorization(self):
        rng = crc_rng("radical-brute")
        for _ in range(12):
            df = rng.randrange(1, 31)
            dg = rng.randrange(0, 31)
            f = pr.UniPoly(
                F5, [F5.from_encoding(rng.randrange(5)) for _ in range(df)] + [F5.one()]
            )
            g = pr.UniPoly(
                F5, [F5.from_encoding(rng.randrange(5)) for _ in range(dg)] + [F5.one()]
            )
            brute = all(
                irr.divides(g) for irr, _ in pr.factor_univariate(f)
            )
            assert pr.radical_divides(f, g) == brute


class TestEvalBi:
    def test_diagonal(self):
        f = B(F5, {(1, 0): 1, (0, 1): -1})
        two = F5.from_int(2)
        assert pr.eval_bi(f, two, two).is_zero()

    def test_xy_minus_one(self):
        f = B(F5, {(1, 1): 1, (0, 0): -1})
        assert pr.eval_bi(f, F5.from_int(2), F5.from_int(3)).is_zero()

    def test_mixed_contexts(self):
        f = B(F5, {(1, 0): 1, (0, 1): -1})
        g = F25.gen()
        assert pr.eval_bi(f, g, g).is_zero()
        assert not pr.eval_bi(f, g, g + F25.one()).is_zero()


class TestAbsoluteIrreducibility:
    def test_frobenius_graph(self):
        assert pr.is_absolutely_irreducible(B(F5, {(1, 0): 1, (0, 25): -1}))

    def test_split_difference_of_squares(self):
        assert not pr.is_absolutely_irreducible(B(F5, {(2, 0): 1, (0, 2): -1}))

    def test_univariate_quadratic_splits_over_closure(self):
        assert not pr.is_absolutely_irreducible(B(F5, {(2, 0): 1, (0, 0): 2}))

    def test_lines(self):
        assert pr.is_absolutely_irreducible(B(F5, {(1, 0): 1, (0, 1): 1, (0, 0): -1}))
        assert pr.is_absolutely_irreducible(B(F5, {(1, 0): 1, (0, 0): -2}))

    def test_hyperbola_and_monomial_relations(self):
        assert pr.is_absolutely_irreducible(B(F5, {(1, 1): 1, (0, 0): -1}))
        assert pr.is_absolutely_irreducible(B(F5, {(2, 1): 1, (0, 0): -1}))
        assert not pr.is_absolutely_irreducible(B(F5, {(2, 2): 1, (0, 0): -1}))

    def test_conjugate_factor_pair_detected_by_counting(self):
        # X^2 - 2XY + 3Y^2 = (X - gY)(X - g^5 Y) with g generating F_25
        f = B(F5, {(2, 0): 1, (1, 1): -2, (0, 2): 3})
        g = F25.gen() + F25.one()
        tr = g + ff.frobenius(g)
        nm = g * ff.frobenius(g)
        assert tr.coeffs == (2, 0) and nm.coeffs == (3, 0)
        assert not pr.is_absolutely_irreducible(f)

    def test_elliptic_curve_is_irreducible(self):
        f = B(F5, {(0, 2): 1, (3, 0): -1, (1, 0): -1, (0, 0): -1})  # Y^2 = X^3+X+1
        assert pr.is_absolutely_irreducible(f)

    def test_reducible_cubic_with_line(self):
        line = B(F5, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
        conic = B(F5, {(2, 0): 1, (0, 1): -1, (0, 0): 1})
        assert not pr.is_absolutely_irreducible(line * conic)

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            pr.is_absolutely_irreducible(B(F5, {(0, 0): 3}))

    def test_dense_quartic_unsupported(self):
        f = B(F5, {(2, 2): 1, (1, 0): 1, (0, 0): 1})
        with pytest.raises(UnsupportedCurveDegree):
            pr.is_absolutely_irreducible(f)


class TestSquarefree:
    def test_product_reproduces_input(self):
        rng = crc_rng("sqf-roundtrip")
        for _ in range(10):
            deg = rng.randrange(2, 12)
            f = pr.UniPoly(
                F5,
                [F5.from_encoding(rng.randrange(5)) for _ in range(deg)] + [F5.one()],
            )
            prod = pr.UniPoly.one(F5)
            for part, mult in pr.squarefree_decomposition(f):
                for _ in range(mult):
                    prod = prod * part
            assert prod == f


# both sides of the table cut (2^16), with k = 1, 2 and >= 3
KERNEL_FIELDS = [
    (7, 1), (103, 1), (65521, 1), (65537, 1),
    (13, 2), (251, 2), (257, 2), (41, 3), (5, 3), (7, 3), (5, 6), (5, 7),
]


class TestKernels:
    def test_dispatch(self):
        for p, k in KERNEL_FIELDS:
            ctx = ff.make_field(p, k)
            if k == 1:
                expected = pr._Residues
            else:
                expected = pr._Logs if ctx.q <= ff._TABLE_MAX else pr._Coeffs
            assert type(pr.kernel(ctx)) is expected, (p, k)

    @staticmethod
    def sample(ctx, rng):
        """Products of linear factors, some repeated, times a random
        cofactor; for small p also a p-th power, whose derivative is zero."""
        polys = []
        for _ in range(4):
            f = random_poly(ctx, rng, rng.randrange(0, 3))
            for _ in range(rng.randrange(1, 4)):
                root = ctx.from_encoding(rng.randrange(ctx.q))
                f = f * pr.UniPoly(ctx, [-root, ctx.one()]) ** rng.randrange(1, 3)
            polys.append(f)
        if ctx.p < 20:
            c = ctx.from_encoding(rng.randrange(1, ctx.q))
            g = pr.UniPoly(ctx, [-c] + [ctx.zero()] * (ctx.p - 1) + [ctx.one()])
            polys.append(g * g * pr.UniPoly.x(ctx))
        return polys

    @pytest.mark.parametrize("p,k", KERNEL_FIELDS)
    def test_roots_and_factors_match_the_object_path(self, p, k, monkeypatch):
        ctx = ff.make_field(p, k)
        polys = self.sample(ctx, crc_rng("kernel-roots", p, k))
        # a polynomial over a subfield, with roots taken in a larger field
        sub = ff.make_field(p, 2 if k == 6 else 1)
        sub_poly = random_poly(sub, crc_rng("kernel-roots-sub", p, k), 4)

        def run():
            return [
                (pr.rational_roots(f), pr.roots_in(f, k), pr.factor_univariate(f),
                 pr.squarefree_decomposition(f))
                for f in polys
            ] + [pr.roots_in(sub_poly, k), pr.roots_in(sub_poly, 3 if k == 6 else k)]

        fast = run()
        # element objects throughout, UniPoly's arithmetic included; the
        # phi_mod store holds the scalars of the kernel that filled it
        clear_caches()
        monkeypatch.setattr(pr, "kernel", ObjectKernel)
        slow = run()
        clear_caches()
        assert fast == slow
        # the int rational roots are the degree-1 factors of the object path
        for f, (roots, *_) in zip(polys, fast):
            assert roots == TestRationalRoots.linear_factors(f)
        # the samples have repeated rational roots
        assert any(total > len(roots) for (total, roots), *_ in fast[:-2])

    @pytest.mark.parametrize("p,k", KERNEL_FIELDS)
    def test_kernel_operations_match_unipoly(self, p, k):
        # UniPoly runs in the kernel, so both are checked against the reference
        ctx = ff.make_field(p, k)
        K, R = pr.kernel(ctx), ObjectKernel(ctx)
        rng = crc_rng("kernel-ops", p, k)
        for _ in range(6):
            a = random_poly(ctx, rng, rng.randrange(0, 7))
            b = random_poly(ctx, rng, rng.randrange(0, 4))
            ka, kb, ra, rb = K.to_list(a), K.to_list(b), R.to_list(a), R.to_list(b)
            assert K.to_poly(ka) == a
            quo, rem = K.divmod(ka, kb)
            assert (K.to_poly(quo), K.to_poly(rem)) == a.divmod(b) == tuple(
                R.to_poly(c) for c in R.divmod(ra, rb))
            assert K.to_poly(K.mul(ka, kb)) == a * b == R.to_poly(R.mul(ra, rb))
            assert K.to_poly(K.gcd(ka, kb)) == a.gcd(b) == R.to_poly(R.gcd(ra, rb))
            assert K.to_poly(K.sub(ka, kb)) == a - b == R.to_poly(R.sub(ra, rb))
            assert K.to_poly(K.monic(ka)) == a.monic() == R.to_poly(R.monic(ra))
            assert K.to_poly(K.derivative(ka)) == a.derivative() == R.to_poly(R.derivative(ra))
            assert K.to_poly(K.powmod(ka, ctx.q + 3, kb)) == object_pow_mod(a, ctx.q + 3, b)
            # the p-th root undoes the coefficient-wise Frobenius of pth_power
            power = a.pth_power()
            assert K.to_poly(K.pth_root(K.to_list(power))) == a
            assert R.pth_root(R.to_list(power)) == ra
            rows = [ka, kb, []]
            x = ctx.from_encoding(rng.randrange(ctx.q))
            values = [K.elem(c) for c in K.evaluate_rows(rows, K.scalar(x))]
            assert values == R.evaluate_rows([ra, rb, []], x)
            for c in a.coeffs:
                s = K.scalar(c)
                assert K.elem(s) == c and K.elem(K.neg(s)) == -c
                assert K.from_encoding(K.encoding(s)) == s
