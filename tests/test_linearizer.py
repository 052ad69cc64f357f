import random
import tracemalloc

import pytest

import conftest as cf
import shrinkca.linearizer
from shrinkca import (
    Gf2Poly,
    Lfsr,
    RuleVector,
    berlekamp_massey,
    ca_char_poly,
    concat_double,
    is_irreducible,
    linearize_shrinking_generator,
    minimal_polynomial_of_power,
    synthesize_ca_pair,
)


class TestConcatDouble:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("01111", "0111001110"),
            ("11110", "1111111111"),
            ("0111001110", "01110011111111001110"),
            ("1111111111", "11111111100111111111"),
        ],
    )
    def test_golden_doublings(self, before, after):
        assert str(concat_double(RuleVector.parse(before))) == after

    def test_single_cell(self):
        assert str(concat_double(RuleVector.parse("1"))) == "00"
        assert str(concat_double(RuleVector.parse("0"))) == "11"

    def test_output_is_palindrome(self):
        rng = random.Random(30)
        for _ in range(50):
            rules = RuleVector([rng.randrange(2) for _ in range(rng.randrange(1, 12))])
            doubled = concat_double(rules)
            assert doubled == doubled.mirror()

    def test_squares_char_poly(self):
        rng = random.Random(31)
        for _ in range(200):
            rules = RuleVector([rng.randrange(2) for _ in range(rng.randrange(1, 13))])
            p = ca_char_poly(rules)
            assert ca_char_poly(concat_double(rules)) == p * p

    def test_matches_tuple_oracle(self):
        # Every length 1..300 once, then chains of up to eight doublings.
        rng = random.Random(32)
        for length in range(1, 301):
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            assert concat_double(rules) == cf.tuple_double(rules), str(rules)
        for _ in range(40):
            packed = oracle = RuleVector(
                [rng.randrange(2) for _ in range(rng.randrange(1, 20))]
            )
            for _ in range(rng.randrange(1, 9)):
                packed, oracle = concat_double(packed), cf.tuple_double(oracle)
                assert (str(packed), len(packed)) == (str(oracle), len(oracle))


def in_wire_order(masks, r):
    return sorted(masks, key=lambda m: str(RuleVector._from_mask(m, r)))


class TestSynthesize:
    def test_golden_degree5(self):
        pair = synthesize_ca_pair(Gf2Poly.parse(cf.BASE5))
        assert tuple(str(v) for v in pair) == cf.PAIR5

    def test_degree_one_collapses(self):
        assert tuple(str(v) for v in synthesize_ca_pair(Gf2Poly.parse("11"))) == ("1",)
        assert tuple(str(v) for v in synthesize_ca_pair(Gf2Poly.parse("01"))) == ("0",)

    def test_degree_four(self):
        pair = synthesize_ca_pair(Gf2Poly.parse("11001"))
        assert len(pair) == 2
        assert pair[0].mirror() == pair[1]
        for rules in pair:
            assert ca_char_poly(rules) == Gf2Poly.parse("11001")

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            synthesize_ca_pair(Gf2Poly.parse("101"))

    def test_roundtrip_every_irreducible_up_to_degree_10(self):
        for degree in range(1, 11):
            for bits in range(1 << degree, 1 << (degree + 1)):
                p = Gf2Poly(bits)
                if not is_irreducible(p):
                    continue
                pair = synthesize_ca_pair(p)
                for rules in pair:
                    assert ca_char_poly(rules) == p
                if degree > 1:
                    assert len(pair) == 2
                    assert pair[0].mirror() == pair[1]

    def test_oracle_walk_matches_the_exhaustive_search(self):
        # The oracle walk on every polynomial of degree 1-9, reducible ones
        # with no solution or more than two included, gives the per-mask
        # search's masks in wire order; the early-stopping walk gives the
        # first of them, or None when there is none.
        counts = set()
        for r in range(1, 10):
            for target in range(1 << r, 1 << (r + 1)):
                walked = list(cf.walk_rule_masks(target, r))
                assert walked == in_wire_order(cf.exhaustive_rule_masks(target, r), r), (r, target)
                first = shrinkca.linearizer._first_mask(target, 1 << (r - 1), 0, 1, 0, 1)
                assert first == (walked[0] if walked else None), (r, target)
                counts.add(len(walked))
        assert 0 in counts and max(counts) > 2

    def test_walk_matches_the_exhaustive_search(self):
        # synthesize_ca_pair on every irreducible polynomial of degree 1-12
        # and eight seeded ones at each degree 13-18 gives both oracles' masks, in wire
        # order, with no sort of its own.
        rng = random.Random(34)
        for r in range(1, 19):
            if r <= 12:
                polys = [p for p in map(Gf2Poly, range(1 << r, 2 << r)) if is_irreducible(p)]
            else:
                polys = []
                while len(polys) < 8:
                    p = Gf2Poly(rng.randrange(1 << r, 2 << r))
                    if is_irreducible(p):
                        polys.append(p)
            for p in polys:
                found = [v.mask150 for v in synthesize_ca_pair(p)]
                assert found == list(cf.walk_rule_masks(p.bits, r)), str(p)
                assert found == in_wire_order(cf.exhaustive_rule_masks(p.bits, r), r), str(p)

    def test_irreducible_bases_have_one_mirror_pair(self):
        # What lets the walk stop at its first match: every irreducible base
        # of degree 2-12 has exactly two rule vectors, each the other's
        # mirror image, and a degree-1 base has one.
        for r in range(1, 13):
            for p in map(Gf2Poly, range(1 << r, 2 << r)):
                if not is_irreducible(p):
                    continue
                found = {RuleVector._from_mask(m, r) for m in cf.walk_rule_masks(p.bits, r)}
                v = min(found, key=str)
                assert found == {v, v.mirror()} and len(found) == min(r, 2), str(p)

    def test_walk_holds_no_frontier(self):
        # Depth first, the walk keeps only the current path: a breadth-first
        # search would hold 2^15 nodes at degree 16, megabytes.
        p = cf.first_primitive(16)
        tracemalloc.start()
        try:
            assert len(synthesize_ca_pair(p)) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestLinearize:
    def test_golden_pipeline(self):
        result = linearize_shrinking_generator(3, Gf2Poly.parse(cf.R2B_POLY))
        assert str(result.rules_a) == cf.PAIR20[0]
        assert str(result.rules_b) == cf.PAIR20[1]
        assert result.base_poly == Gf2Poly.parse(cf.BASE5)
        assert result.multiplicity == 4
        assert result.length == 20
        assert result.coset_n == 7
        assert not result.degenerate

    def test_intermediate_strings(self):
        pair = synthesize_ca_pair(Gf2Poly.parse(cf.BASE5))
        assert tuple(str(concat_double(v)) for v in pair) == cf.PAIR5_DOUBLED

    def test_control_length_one_returns_bare_pair(self):
        p2 = Gf2Poly.parse(cf.R2A_POLY)
        result = linearize_shrinking_generator(1, p2)
        assert result.multiplicity == 1
        assert result.length == 4
        assert result.coset_n == 1
        assert result.base_poly == p2
        assert ca_char_poly(result.rules_a) == p2

    def test_control_length_two(self):
        p2 = Gf2Poly.parse(cf.R2A_POLY)
        result = linearize_shrinking_generator(2, p2)
        base = minimal_polynomial_of_power(p2, 3)
        assert result.length == 8
        assert result.base_poly == base
        assert ca_char_poly(result.rules_a) == base * base
        # Cross-check the base against a stride-3 decimation measurement.
        reg = Lfsr(p2, [1, 0, 0, 0])
        window = reg.sequence(3 * 40)[::3]
        assert berlekamp_massey(window).connection_poly == base

    def test_output_contract_sweep(self):
        for l1, l2 in ((1, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
            p2 = cf.first_primitive(l2)
            result = linearize_shrinking_generator(l1, p2)
            assert result.multiplicity == 1 << (l1 - 1)
            assert result.length == l2 << (l1 - 1)
            assert result.length == result.base_poly.degree * result.multiplicity
            expected = result.base_poly**result.multiplicity
            assert ca_char_poly(result.rules_a) == expected
            assert ca_char_poly(result.rules_b) == expected
            # The pair is closed under mirroring: mutual reversals before
            # any doubling, individual palindromes afterwards.
            vectors = {result.rules_a, result.rules_b}
            assert {v.mirror() for v in vectors} == vectors

    def test_validation(self):
        with pytest.raises(ValueError, match="primitive"):
            linearize_shrinking_generator(3, Gf2Poly.parse("11111"))
        with pytest.raises(ValueError, match="control length"):
            linearize_shrinking_generator(0, Gf2Poly.parse("11001"))

    def test_primitivity_tested_once_per_call(self, primitivity_calls):
        p2 = Gf2Poly.parse(cf.R2B_POLY)
        linearize_shrinking_generator(3, p2)
        assert primitivity_calls == [p2]
        minimal_polynomial_of_power(p2, 7)
        assert primitivity_calls == [p2, p2]

    def test_noncoprime_lengths_shrink_the_base(self):
        # gcd(4, 4) != 1 puts the power in a small coset; the pipeline still
        # returns a consistent (shorter) pair.
        result = linearize_shrinking_generator(4, Gf2Poly.parse("11001"))
        assert result.base_poly == Gf2Poly.parse("11")  # exponent 15 = order
        assert result.length == 8
        assert ca_char_poly(result.rules_a) == Gf2Poly.parse("11") ** 8

    def test_serialization_fields(self):
        result = linearize_shrinking_generator(3, Gf2Poly.parse(cf.R2B_POLY))
        d = result.to_dict()
        assert d == {
            "rules_a": cf.PAIR20[0],
            "rules_b": cf.PAIR20[1],
            "base_poly": cf.BASE5,
            "p": 4,
            "L": 20,
            "N": 7,
        }
        assert RuleVector.parse(d["rules_a"]) == result.rules_a
        assert Gf2Poly.parse(d["base_poly"]) == result.base_poly

    def test_cell_budget_boundary(self, monkeypatch):
        p2 = Gf2Poly.parse(cf.R2B_POLY)  # L = 5 * 2^(l1 - 1)
        monkeypatch.setattr(shrinkca.linearizer, "MAX_CELLS", 20)
        assert linearize_shrinking_generator(3, p2).length == 20
        monkeypatch.setattr(shrinkca.linearizer, "MAX_CELLS", 19)
        with pytest.raises(ValueError, match="20 cells, over 19"):
            linearize_shrinking_generator(3, p2)
        # l1 = 6 forms no power of two before the check: L >= 2^5 > 19.
        with pytest.raises(ValueError, match="control length 6 gives over 19 cells"):
            linearize_shrinking_generator(6, p2)

    def test_search_degree_boundary(self, monkeypatch, primitivity_calls):
        # Degree 5 is searched at a bound of 5; degree 6 is refused by the
        # search, and as a data polynomial before its primitivity test.
        monkeypatch.setattr(shrinkca.linearizer, "_MAX_SEARCH_DEGREE", 5)
        assert len(synthesize_ca_pair(Gf2Poly.parse(cf.BASE5))) == 2
        assert linearize_shrinking_generator(1, Gf2Poly.parse(cf.R2B_POLY)).length == 5
        six = cf.first_primitive(6)
        with pytest.raises(ValueError, match="degree 6 is over 5"):
            synthesize_ca_pair(six)
        calls = len(primitivity_calls)
        with pytest.raises(ValueError, match="degree 6 is over 5"):
            linearize_shrinking_generator(1, six)
        assert len(primitivity_calls) == calls

    def test_result_has_slots(self):
        result = linearize_shrinking_generator(3, Gf2Poly.parse(cf.R2B_POLY))
        assert not hasattr(result, "__dict__")
        moved = result._replace(coset_n=9)
        assert moved.to_dict() == {**result.to_dict(), "N": 9}
        with pytest.raises(AttributeError):
            result.coset_n = 9
        assert repr(result).startswith("LinearizationResult(rules_a=RuleVector.parse(")
        assert repr(result).endswith(", length=20, coset_n=7, degenerate=False)")
        assert result._fields == (
            "rules_a", "rules_b", "base_poly", "multiplicity", "length", "coset_n", "degenerate"
        )
        assert result._field_defaults == {"degenerate": False}
        assert type(result)(*result[:-1]) == result

    def test_degenerate_data_length_one(self):
        result = linearize_shrinking_generator(2, Gf2Poly.parse("11"))
        assert result.degenerate
        assert result.rules_a is result.rules_b
        assert result.length == 2
