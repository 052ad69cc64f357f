import random
from math import gcd

import pytest

import conftest as cf
from shrinkca import (
    Gf2Poly,
    Lfsr,
    berlekamp_massey,
    check_annihilation,
    cyclotomic_coset,
    is_irreducible,
    is_primitive,
    minimal_polynomial_of_power,
    poly_powmod,
    X,
    ONE,
)


class TestCyclotomicCoset:
    def test_golden_cosets(self):
        assert cyclotomic_coset(7, 31) == [7, 14, 28, 25, 19]
        assert cyclotomic_coset(1, 15) == [1, 2, 4, 8]
        assert cyclotomic_coset(7, 15) == [7, 14, 13, 11]

    def test_zero_orbit(self):
        assert cyclotomic_coset(0, 15) == [0]

    def test_size_divides_degree(self):
        for r in range(1, 13):
            order = (1 << r) - 1
            for n in range(order):
                assert r % len(cyclotomic_coset(n, order)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclotomic_coset(3, 14)  # not 2^r - 1
        with pytest.raises(ValueError):
            cyclotomic_coset(15, 15)


class TestFieldElements:
    def test_alpha_has_full_order(self):
        p = Gf2Poly.parse("11001")
        order = (1 << p.degree) - 1
        assert poly_powmod(X, order, p) == ONE
        seen = {poly_powmod(X, k, p).bits for k in range(order)}
        assert len(seen) == order

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            cf.evaluate_solution(Gf2Poly.parse("101"), 1, [1], 0)  # (1+x)^2

    def test_trace_is_binary_and_additive(self):
        modulus = Gf2Poly.parse("101001")
        rng = random.Random(3)
        for _ in range(50):
            u = rng.randrange(1 << modulus.degree)
            v = rng.randrange(1 << modulus.degree)
            tu, tv = (cf.evaluate_solution(modulus, 1, [a], 0) for a in (u, v))
            assert tu in (0, 1)
            assert cf.evaluate_solution(modulus, 1, [u ^ v], 0) == tu ^ tv


class TestMinimalPolynomial:
    def test_golden_degree5(self):
        p2 = Gf2Poly.parse(cf.R2B_POLY)
        assert minimal_polynomial_of_power(p2, 7) == Gf2Poly.parse(cf.BASE5)

    def test_power_one_returns_modulus(self):
        p2 = Gf2Poly.parse(cf.R2B_POLY)
        assert minimal_polynomial_of_power(p2, 1) == p2

    def test_degree4_stride7(self):
        got = minimal_polynomial_of_power(Gf2Poly.parse(cf.R2A_POLY), 7)
        assert got == Gf2Poly.parse("10011")  # x^4 + x^3 + 1
        # Cross-check: the stride-7 decimation of the degree-4 register
        # stream must be annihilated by exactly this polynomial.
        reg = Lfsr(Gf2Poly.parse(cf.R2A_POLY), [1, 0, 0, 0])
        decimated = reg.sequence(7 * 16)[::7]
        assert berlekamp_massey(decimated).connection_poly == got

    def test_requires_primitive(self):
        with pytest.raises(ValueError, match="primitive"):
            minimal_polynomial_of_power(Gf2Poly.parse("11111"), 3)

    def test_negative_exponent_is_refused_before_the_primitivity_test(self):
        # Testing a degree-61 p2 for primitivity does not finish, so the
        # call runs in a child interpreter whose timeout fails the test.
        code = (
            "from shrinkca import Gf2Poly, minimal_polynomial_of_power\n"
            "try:\n"
            "    minimal_polynomial_of_power(Gf2Poly.parse('1+x+x^2+x^5+x^61'), -1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        assert cf.bare_python(code, timeout=10) == "exponent must be nonnegative\n"

    def test_output_is_irreducible_with_coset_degree(self):
        for r in (4, 5, 6):
            p2 = cf.first_primitive(r)
            order = (1 << r) - 1
            for n in range(1, order):
                q = minimal_polynomial_of_power(p2, n)
                assert is_irreducible(q)
                assert q.degree == len(cyclotomic_coset(n, order))
                # Roots live in GF(2^r): x^(2^r - 1) = 1 mod q.
                assert poly_powmod(X, order, q) == ONE

    def test_matches_horner_oracle(self):
        # Every primitive polynomial of degree <= 6, every exponent up to
        # the group order + 1: 648 cases, subfield exponents included.
        p2 = Gf2Poly.parse("1100001")  # 1 + x + x^6
        assert minimal_polynomial_of_power(p2, 9) == Gf2Poly.parse("1011")
        assert minimal_polynomial_of_power(p2, 21) == Gf2Poly.parse("111")
        cases = 0
        for r in range(1, 7):
            order = (1 << r) - 1
            for bits in range(1 << r, 1 << (r + 1)):
                p2 = Gf2Poly(bits)
                if not is_primitive(p2):
                    continue
                for n in range(order + 2):
                    want = cf.smallest_annihilator_of_power(p2, n)
                    assert minimal_polynomial_of_power(p2, n) == want
                    cases += 1
        assert cases == 648

    def test_large_degrees_annihilate_the_power(self):
        # Random primitive P2 of degrees 7-22 and exponents at the edges of
        # the group, in its subfields and up to 2^40: the result is an
        # irreducible annihilator of x^n of coset degree, by one Horner
        # evaluation, and the smallest annihilator up to degree 10.
        rng = random.Random(13)
        for r in range(7, 23):
            while not is_primitive(p2 := Gf2Poly((1 << r) | rng.randrange(1 << r) | 1)):
                pass
            order = (1 << r) - 1
            exponents = [0, 1, order, order + 1]
            for d in (d for d in range(1, r + 1) if r % d == 0):
                step = order // ((1 << d) - 1)
                exponents += [step, step * rng.randrange(1, 1 << d)]
            exponents += [rng.randrange(1 << 40) for _ in range(4)]
            for n in exponents:
                q = minimal_polynomial_of_power(p2, n)
                beta, acc = poly_powmod(X, n, p2), Gf2Poly(0)
                for i in range(q.degree, -1, -1):
                    acc = (acc * beta + Gf2Poly(q.coeff(i))) % p2
                assert not acc, (p2, n)
                assert is_irreducible(q)
                assert q.degree == len(cyclotomic_coset(n % order, order))
                if r <= 10:
                    assert q == cf.smallest_annihilator_of_power(p2, n)

    def test_matches_stride_decimation_sweep(self):
        # For coprime register lengths, the data stream decimated at the
        # control period is a register stream whose polynomial is the
        # minimal polynomial of that power.
        for l1 in range(1, 5):
            for l2 in range(2, 9):
                if gcd(l1, l2) != 1:
                    continue
                stride = (1 << l1) - 1
                p2 = cf.first_primitive(l2)
                reg = Lfsr(p2, [1] + [0] * (l2 - 1))
                window = reg.sequence(stride * 4 * l2)[::stride]
                got = berlekamp_massey(window)
                assert got.connection_poly == minimal_polynomial_of_power(p2, stride)
                assert got.linear_complexity == l2


class TestRecurrenceSolutions:
    def test_trace_solution_annihilated(self):
        base = Gf2Poly.parse(cf.BASE5)
        seq = [cf.evaluate_solution(base, 1, [1], n) for n in range(80)]
        assert check_annihilation(base, 1, seq)
        assert any(seq)

    def test_zero_coefficients_zero_sequence(self):
        modulus = Gf2Poly.parse("11001")
        assert [cf.evaluate_solution(modulus, 3, [0] * 3, n) for n in range(30)] == [0] * 30

    def test_multiplicity_two_needs_squared_operator(self):
        base = Gf2Poly.parse("111")  # x^2 + x + 1
        coeffs = [0, X.bits]
        seq = [cf.evaluate_solution(base, 2, coeffs, n) for n in range(60)]
        assert check_annihilation(base, 2, seq)
        assert not check_annihilation(base, 1, seq)

    def test_solution_map_is_additive(self):
        base = Gf2Poly.parse("1011")
        rng = random.Random(11)
        for _ in range(20):
            p = rng.randrange(1, 5)
            a = [rng.randrange(1 << base.degree) for _ in range(p)]
            b = [rng.randrange(1 << base.degree) for _ in range(p)]
            both = [x ^ y for x, y in zip(a, b)]
            for n in range(40):
                assert cf.evaluate_solution(base, p, both, n) == cf.evaluate_solution(
                    base, p, a, n
                ) ^ cf.evaluate_solution(base, p, b, n)

    def test_every_solution_annihilated_by_power(self):
        base = Gf2Poly.parse("1011")
        rng = random.Random(12)
        for _ in range(15):
            p = rng.randrange(1, 4)
            a = [rng.randrange(1 << base.degree) for _ in range(p)]
            span = 3 * base.degree * p + 10
            seq = [cf.evaluate_solution(base, p, a, n) for n in range(span)]
            assert check_annihilation(base, p, seq)

    @pytest.mark.parametrize("base_text", ["111", "1011"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_solutions_are_every_register_stream(self, base_text, p):
        # The paper's claim: the trace formulas give all solutions of the
        # recurrence with characteristic polynomial base^p, no more and
        # no fewer.  2rp bits pin down a stream of complexity <= rp.
        base = Gf2Poly.parse(base_text)
        r, n = base.degree, 2 * base.degree * p

        def split(k, width, parts):
            return [(k >> (width * m)) & ((1 << width) - 1) for m in range(parts)]

        explicit = {
            tuple(cf.evaluate_solution(base, p, split(k, r, p), t) for t in range(n))
            for k in range(1 << (r * p))
        }
        registers = {
            tuple(Lfsr(base**p, split(k, 1, r * p)).sequence(n))
            for k in range(1 << (r * p))
        }
        assert len(registers) == 1 << (r * p)
        assert explicit == registers

    def test_wrong_coefficient_count_raises(self):
        with pytest.raises(ValueError, match="coefficients"):
            cf.evaluate_solution(Gf2Poly.parse("111"), 2, [1], 0)

    def test_foreign_coefficient_raises(self):
        # 0b100 is a residue mod a cubic, not mod the quadratic 1+x+x^2.
        for bad in (0b100, -1, Gf2Poly.parse("1"), 1.0):
            with pytest.raises(ValueError, match="not a residue"):
                cf.evaluate_solution(Gf2Poly.parse("111"), 1, [bad], 0)
