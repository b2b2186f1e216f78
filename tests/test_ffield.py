import pytest

from cmgate import ffield as ff
from cmgate._numutil import crc_rng, factorize, is_prime
from cmgate.errors import (
    CharTooSmall,
    CompositeP,
    ContextMismatch,
    DivisionByZero,
    InternalInvariant,
    NotASubfield,
    ZeroElement,
)


def brute_smallest_irreducible_quadratic(p):
    """Oracle: scan the p^2 monic quadratics in base-p order, root test."""
    for n in range(p * p):
        c0, c1 = n % p, (n // p) % p
        if all((a * a + c1 * a + c0) % p for a in range(p)):
            return (c0, c1, 1)
    raise AssertionError


def _reference_tables(p, k, modulus):
    """(exp, log, zech) of F_{p^k} one power-basis multiplication per power
    of the least primitive encoding g, which is how the tables were built
    before the digit tables of _TableCtx._times_table."""
    kernel = ff.FieldCtx(p, k, modulus)  # power-basis tuples only, no tables
    q = p**k
    one = _digits(1, p, k)
    g = next(_digits(n, p, k) for n in range(2, q)
             if all(kernel._pow_coeffs(_digits(n, p, k), (q - 1) // r) != one
                    for r in kernel.qm1_factors))
    exp, log, acc = [], [0] * q, one
    for i in range(q - 1):
        n = sum(c * p**d for d, c in enumerate(acc))
        exp.append(n)
        log[n] = i
        acc = kernel._mul_coeffs(acc, g)
    if k == 1:
        return exp + exp, log, None
    plus_one = [n - n % p + (n + 1) % p for n in exp]  # 1 + g^i
    return exp + exp, log, [log[m] if m else -1 for m in plus_one]


# every field with tables and q <= 4096, and F_{251^2}, the largest quadratic one
TABLE_BUILD_FIELDS = [(p, k) for p in range(5, 4097) if is_prime(p)
                      for k in range(1, 6) if p**k <= 4096]


class TestMakeField:
    def test_prime_field_convention(self):
        F5 = ff.make_field(5, 1)
        assert F5.k == 1 and F5.q == 5
        assert F5.modulus == (0, 1)

    def test_smallest_quadratic_modulus(self):
        F25 = ff.make_field(5, 2)
        assert F25.modulus == brute_smallest_irreducible_quadratic(5)
        assert F25.modulus == (2, 0, 1)  # T^2 + 2

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_quadratic_modulus_matches_oracle(self, p):
        assert ff.make_field(p, 2).modulus == brute_smallest_irreducible_quadratic(p)

    @pytest.mark.parametrize("p,k,modulus,generator", [
        # (p, k, defining modulus, distinguished generator's encoding);
        # q <= 2^16 up to (5, 6) and (19, 3), q > 2^16 for the last three
        (5, 3, (1, 1, 0, 1), 9),
        (5, 4, (2, 0, 0, 0, 1), 32),
        (5, 6, (2, 1, 0, 0, 0, 0, 1), 198),
        (7, 3, (2, 0, 0, 1), 22),
        (13, 3, (2, 0, 0, 1), 33),
        (19, 3, (2, 0, 0, 1), 46),
        (17, 4, (3, 0, 0, 0, 1), 352),
        (257, 2, (3, 0, 1), 562),
        (100003, 1, (0, 1), 2),
    ])
    def test_pinned_conventions(self, p, k, modulus, generator):
        ctx = ff.make_field(p, k)
        assert ctx.modulus == modulus
        assert ff.distinguished_generator(ctx).encoding() == generator

    def test_composite_p_rejected(self):
        with pytest.raises(CompositeP):
            ff.make_field(4, 1)

    def test_small_characteristic_rejected(self):
        with pytest.raises(CharTooSmall):
            ff.make_field(3, 1)

    def test_idempotent(self):
        assert ff.make_field(5, 2) is ff.make_field(5, 2)

    @pytest.mark.parametrize("fields", [TABLE_BUILD_FIELDS, [(251, 2)]],
                             ids=["q<=4096", "251^2"])
    def test_tables_match_the_reference_build(self, fields):
        for p, k in fields:
            modulus = ff.make_field(p, k).modulus if k > 1 else (0, 1)
            ctx = ff._TableCtx(p, k, modulus)
            assert (ctx.exp, ctx.log, ctx.zech) == _reference_tables(p, k, modulus), (p, k)


class TestArith:
    def test_mul(self):
        F5 = ff.make_field(5, 1)
        assert F5.from_int(3) * F5.from_int(4) == F5.from_int(2)

    def test_div_verified_by_multiplying_back(self):
        F5 = ff.make_field(5, 1)
        q = F5.from_int(2) / F5.from_int(3)
        assert q == F5.from_int(4)
        assert q * F5.from_int(3) == F5.from_int(2)

    def test_division_by_zero(self):
        F5 = ff.make_field(5, 1)
        with pytest.raises(DivisionByZero):
            F5.one() / F5.zero()

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            ff.make_field(5, 1).one() + ff.make_field(7, 1).one()

    def test_field_axioms_sampled(self):
        F49 = ff.make_field(7, 2)
        elems = [F49.from_encoding(n) for n in (1, 5, 11, 23, 40)]
        for a in elems:
            for b in elems:
                assert a * b == b * a
                assert (a + b) - b == a
                if not b.is_zero():
                    assert (a / b) * b == a


class TestEmbed:
    def test_prime_subfield(self):
        F5, F25 = ff.make_field(5, 1), ff.make_field(5, 2)
        assert ff.embed(F5.from_int(2), F25).coeffs == (2, 0)

    def test_tower_composition(self):
        F25 = ff.make_field(5, 2)
        F54, F58 = ff.make_field(5, 4), ff.make_field(5, 8)
        g = F25.gen()
        assert ff.embed(ff.embed(g, F54), F58) == ff.embed(g, F58)

    def test_tower_composition_7(self):
        F49 = ff.make_field(7, 2)
        F74, F78 = ff.make_field(7, 4), ff.make_field(7, 8)
        g = F49.gen()
        assert ff.embed(ff.embed(g, F74), F78) == ff.embed(g, F78)

    def test_not_a_subfield(self):
        with pytest.raises(NotASubfield):
            ff.embed(ff.make_field(5, 2).gen(), ff.make_field(5, 3))
        with pytest.raises(NotASubfield):
            ff.embed(ff.make_field(5, 1).one(), ff.make_field(7, 2))

    def test_ring_homomorphism(self):
        F25, F54 = ff.make_field(5, 2), ff.make_field(5, 4)
        xs = [F25.from_encoding(n) for n in range(1, 25, 3)]
        for a in xs:
            for b in xs:
                assert ff.embed(a * b, F54) == ff.embed(a, F54) * ff.embed(b, F54)
                assert ff.embed(a + b, F54) == ff.embed(a, F54) + ff.embed(b, F54)

    def test_descend_roundtrip(self):
        F25, F54 = ff.make_field(5, 2), ff.make_field(5, 4)
        for n in range(25):
            x = F25.from_encoding(n)
            assert ff.descend(ff.embed(x, F54), F25) == x

    def test_minimal_field(self):
        F5, F54 = ff.make_field(5, 1), ff.make_field(5, 4)
        y = ff.embed(F5.from_int(3), F54)
        m = ff.minimal_field(y)
        assert m.ctx is F5 and m == F5.from_int(3)


class TestFrobenius:
    def test_prime_field_fixed(self):
        F5 = ff.make_field(5, 1)
        for n in range(5):
            assert ff.frobenius(F5.from_int(n)) == F5.from_int(n)

    def test_order_two_on_quadratic(self):
        g = ff.make_field(5, 2).gen()
        assert ff.frobenius(ff.frobenius(g)) == g

    def test_generator_image(self):
        # g^2 = -2 in F_25, so g^5 = g * (g^2)^2 = 4g
        F25 = ff.make_field(5, 2)
        g = F25.gen()
        assert g * g == F25.from_int(-2)
        assert ff.frobenius(g) == g.scale(4)

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (5, 3)])
    def test_orbit_closes(self, p, k):
        ctx = ff.make_field(p, k)
        for x in ff.enumerate_elements(ctx):
            y = x
            for _ in range(k):
                y = ff.frobenius(y)
            assert y == x

    def test_frobenius_is_pth_power(self):
        ctx = ff.make_field(7, 3)
        for n in range(0, 343, 17):
            x = ctx.from_encoding(n)
            assert ff.frobenius(x) == x**7


class TestMultiplicativeOrder:
    def test_one(self):
        assert ff.multiplicative_order(ff.make_field(5, 1).one()) == 1

    def test_three_mod_seven(self):
        # powers of 3 mod 7: 3, 2, 6, 4, 5, 1
        assert ff.multiplicative_order(ff.make_field(7, 1).from_int(3)) == 6

    def test_divides_group_order(self):
        F25 = ff.make_field(5, 2)
        for x in ff.enumerate_elements(F25):
            if not x.is_zero():
                assert 24 % ff.multiplicative_order(x) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            ff.multiplicative_order(ff.make_field(5, 1).zero())

    def test_preserved_by_frobenius(self):
        for p, k in [(5, 2), (7, 2)]:
            ctx = ff.make_field(p, k)
            for x in ff.enumerate_elements(ctx):
                if x.is_zero():
                    continue
                assert ff.multiplicative_order(ff.frobenius(x)) == ff.multiplicative_order(x)

    def test_matches_naive_powering(self):
        ctx = ff.make_field(11, 1)
        for n in range(1, 11):
            x = ctx.from_int(n)
            acc, order = x, 1
            while acc != ctx.one():
                acc = acc * x
                order += 1
            assert order == ff.multiplicative_order(x)


class TestEnumerate:
    def test_prime_field_order(self):
        F5 = ff.make_field(5, 1)
        assert [e.coeffs[0] for e in ff.enumerate_elements(F5)] == [0, 1, 2, 3, 4]

    def test_cardinality_no_repeats(self):
        F25 = ff.make_field(5, 2)
        seen = set(e.coeffs for e in ff.enumerate_elements(F25))
        assert len(seen) == 25

    def test_order_24_count(self):
        F25 = ff.make_field(5, 2)
        cnt = sum(
            1
            for e in ff.enumerate_elements(F25)
            if not e.is_zero() and ff.multiplicative_order(e) == 24
        )
        assert cnt == 8  # phi(24)


# Fields of the suite and both sides of the table cut: F_{251^2} and F_{5^6}
# compute on encodings, F_{257^2} and F_{5^7} on power-basis tuples.
DIFFERENTIAL_FIELDS = [
    (5, 1), (7, 1), (11, 1), (13, 1), (65521, 1), (65537, 1),
    (5, 2), (7, 2), (11, 2), (13, 2), (5, 3), (7, 3), (5, 4), (7, 4),
    (5, 6), (251, 2), (5, 7), (257, 2),
]


def _samples(ctx, count=24):
    rng = crc_rng("ffield-differential", ctx.p, ctx.k)
    encs = [0, 1, ctx.p - 1] + [rng.randrange(ctx.q) for _ in range(count)]
    return [ctx.from_encoding(n) for n in encs]


def _digits(n, p, k):
    return tuple(n // p**i % p for i in range(k))


def _ref_pow(ctx, a, e):
    """Square-and-multiply on coefficient tuples; e < 0 inverts."""
    result = _digits(1, ctx.p, ctx.k)
    base = a
    for bit in bin(abs(e))[2:][::-1]:
        if bit == "1":
            result = ctx._mul_coeffs(result, base)
        base = ctx._mul_coeffs(base, base)
    return ctx._inv_coeffs(result) if e < 0 else result


class TestBackendAgainstTupleKernels:
    """Every operation, whatever the representation, against the power-basis
    kernels (_mul_coeffs, _inv_coeffs, coefficient-wise add) on .coeffs."""

    @pytest.mark.parametrize("p,k", DIFFERENTIAL_FIELDS)
    def test_representation_follows_the_cut(self, p, k):
        ctx = ff.make_field(p, k)
        assert (ctx.log is not None) == (ctx.q <= ff._TABLE_MAX)

    @pytest.mark.parametrize("p,k", DIFFERENTIAL_FIELDS)
    def test_constructors_and_views(self, p, k):
        ctx = ff.make_field(p, k)
        assert ctx.zero().coeffs == (0,) * k and ctx.zero().is_zero()
        assert ctx.one().coeffs == _digits(1, p, k)
        assert ctx.from_int(-1).coeffs == _digits(p - 1, p, k)
        assert ctx.from_int(p + 3) == ctx.from_int(3)
        if k > 1:
            assert ctx.gen().coeffs == _digits(p, p, k)
        for a in _samples(ctx):
            n = a.encoding()
            assert 0 <= n < ctx.q and a.coeffs == _digits(n, p, k)
            assert ctx.from_coeffs(a.coeffs) == a
            assert ctx.from_encoding(n + ctx.q) == a
            assert a.is_zero() == (n == 0)
            copy = ctx.from_encoding(n)
            assert copy == a and hash(copy) == hash(a)
            if k == 1:
                assert a.lift() == n

    @pytest.mark.parametrize("p,k", DIFFERENTIAL_FIELDS)
    def test_unary_operations(self, p, k):
        ctx = ff.make_field(p, k)
        for a in _samples(ctx):
            ca = a.coeffs
            assert (-a).coeffs == tuple(-c % p for c in ca)
            assert ff.frobenius(a).coeffs == _ref_pow(ctx, ca, p)
            for c in (0, 1, 2, p - 1, p + 3, -2):
                assert a.scale(c).coeffs == tuple(x * c % p for x in ca)
            for e in (0, 1, 2, 3, p, ctx.q - 2, ctx.q + 5, 12345):
                assert (a ** e).coeffs == _ref_pow(ctx, ca, e)
            if a.is_zero():
                with pytest.raises(DivisionByZero):
                    ctx.one() / a
                with pytest.raises(DivisionByZero):
                    a ** -1
            else:
                assert (a ** -1).coeffs == ctx._inv_coeffs(ca)
                for e in (-1, -2, -7, -(ctx.q + 1)):
                    assert (a ** e).coeffs == _ref_pow(ctx, ca, e)
                if ctx.log is not None:
                    assert ff.multiplicative_order(a) == _ref_order(ctx, ca)

    @pytest.mark.parametrize("p,k", DIFFERENTIAL_FIELDS)
    def test_binary_operations(self, p, k):
        ctx = ff.make_field(p, k)
        xs = _samples(ctx)
        for a in xs:
            ca = a.coeffs
            for b in xs:
                cb = b.coeffs
                assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(ca, cb))
                assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(ca, cb))
                assert (a * b).coeffs == ctx._mul_coeffs(ca, cb)
                if b.is_zero():
                    with pytest.raises(DivisionByZero):
                        a / b
                else:
                    assert (a / b).coeffs == ctx._mul_coeffs(ca, ctx._inv_coeffs(cb))
                assert (a == b) == (ca == cb)

    @pytest.mark.parametrize("small,big", [((5, 1), (5, 2)), ((5, 2), (5, 4)),
                                           ((5, 2), (5, 6)), ((5, 3), (5, 6)),
                                           ((7, 2), (7, 4)), ((251, 1), (251, 2)),
                                           ((5, 4), (5, 8)), ((5, 1), (5, 7))])
    def test_embed_and_descend(self, small, big):
        src, tgt = ff.make_field(*small), ff.make_field(*big)
        rows = ff._embed_rows(src, tgt)
        xs = _samples(src, 12)
        for a in xs:
            image = ff.embed(a, tgt)
            want = [0] * tgt.k
            for c, row in zip(a.coeffs, rows):
                want = [(w + c * r) % tgt.p for w, r in zip(want, row)]
            assert image.coeffs == tuple(want)
            assert ff.descend(image, src) == a
            for b in xs:
                assert ff.embed(a * b, tgt) == image * ff.embed(b, tgt)
                assert ff.embed(a + b, tgt) == image + ff.embed(b, tgt)

    def test_tower_across_the_cut(self):
        # F_{5^2} -> F_{5^4} (encodings) -> F_{5^8} (tuples) equals the direct map
        F25, F54, F58 = ff.make_field(5, 2), ff.make_field(5, 4), ff.make_field(5, 8)
        for a in _samples(F25):
            assert ff.embed(ff.embed(a, F54), F58) == ff.embed(a, F58)


def _ref_order(ctx, a):
    one = _digits(1, ctx.p, ctx.k)
    order = ctx.q - 1
    for prime in factorize(order):
        while order % prime == 0 and _ref_pow(ctx, a, order // prime) == one:
            order //= prime
    return order


def _euclid_inverse(a, modulus, p):
    """a^-1 modulo the field's modulus by the extended Euclidean algorithm in
    F_p[T]; polynomials are coefficient lists, constant term first."""

    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    def sub_mul(f, c, shift, g):  # f - c T^shift g
        f = f + [0] * max(0, len(g) + shift - len(f))
        for i, gi in enumerate(g):
            f[i + shift] = (f[i + shift] - c * gi) % p
        return trim(f)

    r0, r1 = list(modulus), trim(list(a))
    s0, s1 = [], [1]
    while r1:
        r, s = r0[:], s0[:]
        inv_lead = pow(r1[-1], -1, p)
        while len(r) >= len(r1):
            c, shift = r[-1] * inv_lead % p, len(r) - len(r1)
            r = sub_mul(r, c, shift, r1)
            s = sub_mul(s, c, shift, s1)
        r0, r1, s0, s1 = r1, r, s1, s
    assert len(r0) == 1  # gcd is a unit: the modulus is irreducible
    c = pow(r0[0], -1, p)
    out = [x * c % p for x in s0]
    return tuple(out + [0] * (len(modulus) - 1 - len(out)))


class TestNormInverse:
    """Inversion through the norm, a^-1 = a^(r - 1) / N(a), above the table cut."""

    @pytest.mark.parametrize("p,k", [(257, 2), (101, 3), (17, 4), (11, 5)])
    def test_matches_extended_euclid(self, p, k):
        ctx = ff.make_field(p, k)
        assert ctx.log is None
        xs = [a for a in _samples(ctx, 60) if not a.is_zero()]
        for d in [e for e in range(1, k) if k % e == 0]:  # every proper subfield
            sub = ff.make_field(p, d)
            rng = crc_rng("norm-inverse-subfield", p, k, d)
            xs += [ff.embed(sub.from_encoding(rng.randrange(1, sub.q)), ctx) for _ in range(10)]
        for a in xs:
            inv = ctx._inv_coeffs(a.coeffs)
            assert inv == _euclid_inverse(a.coeffs, ctx.modulus, p)
            assert ctx._mul_coeffs(a.coeffs, inv) == _digits(1, p, k)
            assert (a ** -1).coeffs == inv

    @pytest.mark.parametrize("p,k", [(65537, 1), (257, 2), (11, 5)])
    def test_zero_has_no_inverse(self, p, k):
        ctx = ff.make_field(p, k)
        with pytest.raises(DivisionByZero):
            ctx._inv_coeffs((0,) * k)
        with pytest.raises(DivisionByZero):
            ctx.zero() ** -1
        with pytest.raises(DivisionByZero):
            ctx.one() / ctx.zero()


class TestElementDegree:
    # log tables for all but (17, 4)
    @pytest.mark.parametrize("p,k", [(5, 4), (5, 6), (7, 3), (13, 2), (17, 4)])
    def test_least_d_with_x_to_the_p_to_the_d(self, p, k):
        ctx = ff.make_field(p, k)
        xs = _samples(ctx)
        for d in [e for e in range(1, k + 1) if k % e == 0]:
            sub = ff.make_field(p, d)
            xs += [ff.embed(x, ctx) for x in _samples(sub, 4)]
        for x in xs:
            least = next(d for d in range(1, k + 1) if x ** (p**d) == x)
            assert ff.element_degree(x) == least


class TestConjugateProduct:
    @pytest.mark.parametrize("p,k", [(5, 4), (7, 3), (17, 4)])
    def test_orbit_of_the_generator_gives_the_modulus(self, p, k):
        ctx = ff.make_field(p, k)
        assert ff.conjugate_product(ctx, ff.frobenius_orbit(ctx.gen())) == ctx.modulus

    def test_a_set_that_is_not_galois_stable_is_an_internal_fault(self):
        ctx = ff.make_field(7, 3)
        with pytest.raises(InternalInvariant):
            ff.conjugate_product(ctx, [ctx.gen().encoding()])
