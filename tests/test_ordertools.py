import pytest

from cmgate import ffield as ff
from cmgate import ordertools as ot
from cmgate import polyring as pr
from cmgate.errors import EqualPrimes, IndexDivisibleByP

F5 = ff.make_field(5, 1)
F7 = ff.make_field(7, 1)


class TestCyclotomic:
    def test_psi_1(self):
        assert ot.cyclotomic_int(1) == [-1, 1]

    def test_psi_6(self):
        assert ot.cyclotomic_int(6) == [1, -1, 1]  # T^2 - T + 1

    def test_psi_4_over_f5(self):
        psi = ot.cyclotomic_polynomial(4, F5)
        roots = pr.roots_in(psi, 1)
        assert sorted(r.coeffs[0] for r in roots) == [2, 3]
        for r in roots:
            assert ff.multiplicative_order(r) == 4

    def test_index_divisible_by_p(self):
        with pytest.raises(IndexDivisibleByP):
            ot.cyclotomic_polynomial(10, F5)

    def test_product_identity(self):
        # prod_{d | n} Psi_d = T^n - 1 for n up to 120, exact over Z
        # (stronger than the mod-p identity the torsion gates rely on)
        for n in range(1, 121):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    phi_d = ot.cyclotomic_int(d)
                    new = [0] * (len(prod) + len(phi_d) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi_d):
                            new[i + j] += a * b
                    prod = new
            expected = [0] * (n + 1)
            expected[0], expected[n] = -1, 1
            assert prod == expected, n

    def test_degree_is_euler_phi(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if ot.gcd(k, n) == 1)

        for n in (1, 2, 3, 4, 6, 8, 12, 15, 30, 36):
            assert len(ot.cyclotomic_int(n)) - 1 == phi(n)

    def test_roots_have_exact_order(self):
        # every root of Psi_n in a small field has multiplicative order n
        for n, ctx in ((8, ff.make_field(5, 2)), (6, F7), (12, ff.make_field(7, 2))):
            psi = ot.cyclotomic_polynomial(n, ff.make_field(ctx.p, 1))
            for r in pr.roots_in(psi, ctx.k):
                assert ff.multiplicative_order(r) == n

    def test_roots_have_exact_order_systematic(self):
        # sweep n <= 50 over F_7, collecting roots in the minimal field
        # containing mu_n whenever it fits the size bound
        for n in range(1, 51):
            if n % 7 == 0:
                continue
            k = ot.multiplicative_order_mod(7, n) if n > 1 else 1
            if 7**k > 2**20:
                continue
            psi = ot.cyclotomic_polynomial(n, F7)
            roots = pr.roots_in(psi, k)
            assert len(roots) == len(psi.coeffs) - 1  # splits completely
            for r in roots:
                assert ff.multiplicative_order(r) == n


class TestStabilizationThreshold:
    def test_ell3_p5(self):
        report = ot.stabilization_threshold(3, 5, 6)
        assert report.degrees == [2, 6, 18, 54, 162, 486]
        assert report.threshold == 1

    def test_ell2_p7(self):
        report = ot.stabilization_threshold(2, 7, 6)
        assert report.degrees == [1, 2, 2, 2, 4, 8]
        assert report.threshold == 4

    def test_degrees_divide_successors(self):
        for ell, p in ((3, 7), (5, 7), (2, 5), (7, 11)):
            report = ot.stabilization_threshold(ell, p, 5)
            for m in range(1, 5):
                assert report.degrees[m] % report.degrees[m - 1] == 0

    def test_degree_matches_bruteforce_field_scan(self):
        # degrees[m] = least k with l^m | p^k - 1 (independent big-int scan)
        for ell, p in ((3, 5), (2, 7), (5, 11)):
            report = ot.stabilization_threshold(ell, p, 4)
            for m in range(1, 5):
                k = 1
                while (p**k - 1) % ell**m:
                    k += 1
                assert report.degrees[m - 1] == k

    def test_equal_primes_rejected(self):
        with pytest.raises(EqualPrimes):
            ot.stabilization_threshold(5, 5, 3)
