import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerated_exponents, first_primitive, long_division_lists, regex_parse
from conftest import regex_read_bits, trial_division_irreducible
from shrinkca import ONE, X, ZERO, Gf2Poly, is_irreducible, is_primitive, poly_gcd, poly_powmod
from shrinkca.gf2poly import MAX_WINDOW_BITS, _exponents, _read_bits


def P(text):
    return Gf2Poly.parse(text)


@st.composite
def masks(draw):
    """0, 1, or a sparse or dense mask, times x**k for k in 0..3, or Q(x**g)."""
    kind = draw(st.sampled_from(["constant", "sparse", "dense", "x-factor", "Q(x^g)"]))
    if kind == "constant":
        return draw(st.integers(0, 1))
    if kind == "sparse":
        top = draw(st.integers(1, 1 << 14))
        lower = draw(st.lists(st.integers(0, top - 1), max_size=4))
        return sum({1 << k for k in [0, top] + lower})
    d = draw(st.integers(1, 300))
    dense = ((2 << d) - 1) ^ draw(st.integers(0, (1 << d) - 1))
    if kind == "dense":
        return dense
    if kind == "x-factor":
        return dense << draw(st.integers(1, 3))
    g = draw(st.integers(2, 7))
    return sum(1 << g * i for i in range(d + 1) if dense >> i & 1)


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class TestParseFormat:
    def test_bitstring_form(self):
        assert P("101001").to_terms() == "1+x^2+x^5"
        assert P("0").bits == 0
        assert P("1") == ONE

    def test_term_form(self):
        assert P("1+x^2+x^5") == P("101001")
        assert P("x") == X
        assert P("x^0") == ONE
        assert P(" 1 + x ") == P("11")

    def test_duplicate_terms_cancel(self):
        assert P("x+x") == ZERO
        assert P("1+x+1") == X

    def test_canonical_roundtrip(self):
        for text in ("0", "1", "11001", "101001", "1000000001"):
            assert P(text).to_bitstring() == text
            assert P(P(text).to_terms()) == P(text)

    @pytest.mark.parametrize(
        "bad", ["", "102", "x^", "y+1", "1+", "x**2", "2", "1+x^\u0663"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            P(bad)

    def test_term_exponent_bound_is_exact(self):
        # Refused before the shift: 1 << 10**10 alone would take 1.25 GB.
        assert P(f"1+x^{MAX_WINDOW_BITS}").degree == MAX_WINDOW_BITS
        with pytest.raises(ValueError, match=f"term exponent {MAX_WINDOW_BITS + 1} is over"):
            P(f"1+x^{MAX_WINDOW_BITS + 1}")

    @settings(max_examples=500, deadline=None)
    @given(masks())
    def test_exponents_match_a_scan_of_every_coefficient(self, mask):
        # One split of the text finds the set bits that a pass over every
        # character finds, and the term form they print parses back.
        assert _exponents(mask) == enumerated_exponents(mask)
        assert P(Gf2Poly(mask).to_terms()) == Gf2Poly(mask)

    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet="01x^+ \t\n23456789\u00b2\u0663\uff11", max_size=12))
    def test_text_checks_match_the_regular_expressions(self, text):
        # The bit and term checks are string tests; the regular expressions
        # [01]+ and 1|x(\^[0-9]+)? in conftest are the oracle.  Non-ASCII
        # digits (superscript two, Arabic-Indic three, fullwidth one) are
        # refused, as [0-9] refuses them.
        for fast, oracle in ((_read_bits, regex_read_bits), (P, regex_parse)):
            try:
                want = oracle(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    fast(text)
                assert str(got.value) == str(exc)
            else:
                assert fast(text) == want

    @pytest.mark.parametrize("bad", [[0, -1], [0, 256], [1.5, 0], [0, 2]])
    def test_from_coeffs_names_every_non_bit(self, bad):
        with pytest.raises(ValueError, match="sequence bits must be 0 or 1"):
            Gf2Poly.from_coeffs(bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, "101", None])
    def test_mask_must_be_a_nonnegative_int(self, bad):
        with pytest.raises(ValueError, match="coefficient mask must be a nonnegative int"):
            Gf2Poly(bad)

    def test_is_immutable(self):
        p = P("101")
        with pytest.raises(AttributeError, match="Gf2Poly is immutable"):
            p.bits = 3
        assert p == Gf2Poly(5)

    def test_equal_polynomials_hash_alike(self):
        assert hash(P("1+x^2")) == hash(P("1010")) == hash(Gf2Poly(5)) == hash((Gf2Poly, 5))
        assert len({P("101"), P("1+x^2"), Gf2Poly(5), P("11")}) == 2

    def test_coeff(self):
        assert [P("1+x^2").coeff(i) for i in range(4)] == [1, 0, 1, 0]
        with pytest.raises(ValueError, match="^coefficient index must be nonnegative$"):
            P("1+x^2").coeff(-1)

    def test_degree(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert P("101001").degree == 5


class TestArithmetic:
    def test_add_self_cancels(self):
        a = P("1101")
        assert a + a == ZERO

    def test_add_identity(self):
        a = P("1101")
        assert a + ZERO == a

    def test_add_xors_masks(self):
        assert P("11") + P("011") == P("101")  # (1+x) + (x+x^2) = 1+x^2

    def test_square_spreads_exponents(self):
        assert P("11") * P("11") == P("101")
        assert P("101001") * P("101001") == P("10001000001")  # 1+x^4+x^10

    def test_mul_identity(self):
        a = P("100101")
        assert a * ONE == a

    def test_rem_golden(self):
        # x^7 mod (x^4+x+1), checked against schoolbook division
        a, m = P("x^7"), P("11001")
        expected = P("1101")  # x^3+x+1
        assert a % m == expected
        assert long_division_lists(a, m)[1] == expected

    def test_rem_degree_below_modulus(self):
        assert P("x^3") % P("11001") == P("x^3")

    def test_rem_zero(self):
        assert ZERO % P("11001") == ZERO

    def test_zero_modulus_raises(self):
        with pytest.raises(ZeroDivisionError):
            P("101") % ZERO
        with pytest.raises(ZeroDivisionError):
            poly_powmod(X, 3, ZERO)

    def test_division_law_random(self):
        rng = random.Random(0xD1F)
        for _ in range(300):
            a = Gf2Poly(rng.getrandbits(64))
            m = Gf2Poly(rng.getrandbits(32) | 1 << rng.randrange(1, 32))
            q, r = divmod(a, m)
            assert (a // m, a % m) == (q, r)
            assert r.degree < m.degree
            assert q * m + r == a
            assert (q, r) == long_division_lists(a, m)

    def test_ring_laws_random(self):
        rng = random.Random(0xA11CE)
        for _ in range(200):
            a = Gf2Poly(rng.getrandbits(64))
            b = Gf2Poly(rng.getrandbits(64))
            c = Gf2Poly(rng.getrandbits(64))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a and b:
                assert (a * b).degree == a.degree + b.degree

    def test_frobenius_squaring(self):
        rng = random.Random(7)
        for _ in range(100):
            a = Gf2Poly(rng.getrandbits(48))
            sq = a * a
            for i in range(2 * 48):
                expected = a.coeff(i // 2) if i % 2 == 0 else 0
                assert sq.coeff(i) == expected

    def test_pow(self):
        assert P("11") ** 0 == ONE
        assert P("11") ** 2 == P("101")
        assert P("101001") ** 4 == P("101001") * P("101001") * P("101001") * P("101001")

    def test_pow_degree_bound_is_exact(self):
        # Refused before the first product: X**(2**40) alone would take 128 GB.
        assert (X**MAX_WINDOW_BITS).degree == MAX_WINDOW_BITS
        assert (P("111") ** (MAX_WINDOW_BITS // 2)).degree == MAX_WINDOW_BITS
        for base, k in ((X, MAX_WINDOW_BITS + 1), (X, 1 << 40), (P("111"), 1 << 21 | 1)):
            with pytest.raises(ValueError, match=f"degree {base.degree * k}, over"):
                base**k
        assert ZERO ** (1 << 40) == ZERO
        assert ONE ** (1 << 40) == ONE

    @pytest.mark.parametrize(
        "name, operand",
        [
            ("__add__", 1),
            ("__sub__", 1),
            ("__mul__", 1),
            ("__divmod__", 1),
            ("__floordiv__", 1),
            ("__mod__", 1),
            ("__eq__", 1),
            ("__pow__", -1),
            ("__pow__", 1.5),
        ],
    )
    def test_foreign_operand_is_not_implemented(self, name, operand):
        # Python then tries the operand's reflected method, so a mixed
        # expression raises TypeError, and == falls back to identity.
        assert getattr(P("101"), name)(operand) is NotImplemented


class TestPowmod:
    def test_generator_order(self):
        assert poly_powmod(X, 15, P("11001")) == ONE

    def test_small_exponent(self):
        assert poly_powmod(X, 1, P("11001")) == X

    def test_matches_rem(self):
        assert poly_powmod(X, 7, P("11001")) == P("x^7") % P("11001")

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            poly_powmod(X, -1, P("11001"))


class TestIrreducible:
    def test_known_values(self):
        assert is_irreducible(P("11001"))  # x^4+x+1
        assert not is_irreducible(P("x^2"))
        assert is_irreducible(P("11111"))  # x^4+x^3+x^2+x+1

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            is_irreducible(ONE)
        with pytest.raises(ValueError):
            is_irreducible(ZERO)

    def test_matches_trial_division_upto_degree_8(self):
        for bits in range(2, 1 << 9):
            p = Gf2Poly(bits)
            assert is_irreducible(p) == trial_division_irreducible(p), p


class TestPrimitive:
    def test_known_values(self):
        assert is_primitive(P("11001"))
        assert not is_primitive(P("11111"))  # x has order 5 mod it
        assert is_primitive(P("101001"))  # 1+x^2+x^5

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            is_primitive(ONE)

    def test_primitive_implies_irreducible(self):
        for bits in range(2, 1 << 9):
            p = Gf2Poly(bits)
            if is_primitive(p):
                assert trial_division_irreducible(p)

    def test_generator_order_is_full(self):
        # For each degree r <= 16, the first primitive polynomial found must
        # give x full order 2^r - 1 and no proper-divisor order.
        for r in range(1, 17):
            p = first_primitive(r)
            order = (1 << r) - 1
            assert poly_powmod(X, order, p) == ONE
            for q in _prime_factors(order):
                assert poly_powmod(X, order // q, p) != ONE

    def test_gcd(self):
        a = P("11001") * P("111")
        b = P("11001") * P("11")
        assert poly_gcd(a, b) == P("11001")
