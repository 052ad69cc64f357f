import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cf
from shrinkca import (
    Gf2Poly,
    Lfsr,
    RuleVector,
    ShrinkingGenerator,
    ca_char_poly,
    ca_run,
    cell_output,
    check_annihilation,
    concat_double,
    fit_initial_state,
    is_irreducible,
    linearize_shrinking_generator,
    parse_bits,
    sequence_period,
    state_from_bits,
    state_to_bits,
    synthesize_ca_pair,
)


def _pack(text):
    return state_from_bits([int(c) for c in text])


def _unpack(state, length):
    return "".join(str(b) for b in state_to_bits(state, length))


class TestRuleVector:
    def test_parse_and_str(self):
        rv = RuleVector.parse(cf.ORBIT_RULES)
        assert str(rv) == cf.ORBIT_RULES
        assert len(rv) == 10
        assert rv.delta[0] == 0 and rv.delta[1] == 1

    def test_mirror(self):
        assert str(RuleVector.parse("0111").mirror()) == "1110"

    def test_validation(self):
        with pytest.raises(ValueError):
            RuleVector(())
        for bad in (2, 1.5, -1, 1.0):
            with pytest.raises(ValueError, match="0 or 1"):
                RuleVector((0, bad))
        assert RuleVector((True, False)).delta == b"\1\0"
        with pytest.raises(ValueError):
            RuleVector.parse("01a1")

    def test_ordering_and_equality(self):
        assert RuleVector.parse("01111") < RuleVector.parse("11110")
        assert RuleVector.parse("01") == RuleVector((0, 1))
        rv = RuleVector.parse("01")
        assert rv.__eq__("01") is rv.__lt__("01") is NotImplemented
        assert rv != "01"
        with pytest.raises(TypeError):
            rv < "01"

    def test_packed_form_matches_tuple_oracle(self):
        # Every vector of length 1..8 against its tuple: text, bits (0/1
        # bytes, as every stream is, that rebuild the vector), length,
        # mirror, order (prefixes first, as tuples sort), and equality and
        # hash, which must not confuse "0" with "00".
        tuples = [t for n in range(1, 9) for t in product((0, 1), repeat=n)]
        vectors = [RuleVector(t) for t in tuples]
        for t, rv in zip(tuples, vectors):
            text = "".join(map(str, t))
            assert str(rv) == text and rv.delta == bytes(t) and list(rv) == list(t)
            assert type(rv.delta) is bytes and rv.delta == parse_bits(text)
            assert RuleVector(rv.delta) == rv
            assert len(rv) == len(t)
            parsed = RuleVector.parse(text)
            assert parsed == rv and hash(parsed) == hash(rv)
            assert hash(rv) == hash((RuleVector, rv.mask150 | 1 << len(t)))
            assert rv.mirror() == RuleVector(t[::-1])
            assert rv.mask150 == sum(d << i for i, d in enumerate(t))
        order = sorted(range(len(tuples)), key=tuples.__getitem__)
        assert sorted(vectors) == [vectors[i] for i in order]
        assert len(set(vectors)) == len(tuples)
        rng = random.Random(14)
        for _ in range(20000):
            i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
            a, b = vectors[i], vectors[j]
            assert (a == b) == (tuples[i] == tuples[j])
            assert (a < b) == (tuples[i] < tuples[j])


class TestStatePacking:
    def test_roundtrip(self):
        for text in ("0", "1", "0001110110", "1111111111"):
            assert _unpack(_pack(text), len(text)) == text

    def test_unpacks_to_bytes(self):
        assert state_to_bits(0b0101, 5) == bytes([1, 0, 1, 0, 0])
        assert state_to_bits(0, 0) == b""

    def test_bounds(self):
        with pytest.raises(ValueError):
            state_to_bits(4, 2)
        with pytest.raises(ValueError, match="length must be nonnegative"):
            state_to_bits(0, -1)
        with pytest.raises(ValueError):
            state_from_bits([0, 2])

    @pytest.mark.parametrize("bad", [[0, -1], [0, 256], [1.5, 0], [0, "1"], [0, None]])
    def test_every_non_bit_is_named(self, bad):
        with pytest.raises(ValueError, match="sequence bits must be 0 or 1"):
            state_from_bits(bad)


class TestStep:
    def test_golden_orbit_rows(self):
        rules = RuleVector.parse(cf.ORBIT_RULES)
        for before, after in zip(cf.ORBIT_ROWS, cf.ORBIT_ROWS[1:]):
            assert ca_run(rules, _pack(before), 1)[1] == _pack(after)

    def test_zero_state_fixed(self):
        rules = RuleVector.parse(cf.ORBIT_RULES)
        assert ca_run(rules, 0, 1) == [0, 0]

    def test_state_too_wide_rejected(self):
        rules = RuleVector.parse("010")
        with pytest.raises(ValueError, match="length 3"):
            ca_run(rules, 0b1000, 1)

    def test_linearity(self):
        rng = random.Random(5)
        rules = RuleVector([rng.randrange(2) for _ in range(17)])
        for _ in range(100):
            s1 = rng.randrange(1 << 17)
            s2 = rng.randrange(1 << 17)
            step = [ca_run(rules, s, 1)[1] for s in (s1, s2, s1 ^ s2)]
            assert step[2] == step[0] ^ step[1]

    def test_matches_matrix_product(self):
        rng = random.Random(6)
        for _ in range(100):
            length = rng.randrange(1, 14)
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            m = cf.transition_matrix(rules)
            state = rng.randrange(1 << length)
            expected = cf.mat_vec_mod2(m, state_to_bits(state, length))
            assert state_to_bits(ca_run(rules, state, 1)[1], length) == bytes(expected)


class TestRun:
    def test_golden_rows(self):
        rules = RuleVector.parse(cf.ORBIT_RULES)
        states = ca_run(rules, _pack(cf.ORBIT_ROWS[0]), 5)
        assert [_unpack(s, 10) for s in states] == cf.ORBIT_ROWS

    def test_zero_steps(self):
        rules = RuleVector.parse(cf.ORBIT_RULES)
        start = _pack(cf.ORBIT_ROWS[0])
        assert ca_run(rules, start, 0) == [start]

    def test_orbit_closes_after_62_steps(self):
        rules = RuleVector.parse(cf.ORBIT_RULES)
        start = _pack(cf.ORBIT_ROWS[0])
        states = ca_run(rules, start, cf.ORBIT_PERIOD)
        assert states[-1] == start
        assert start not in states[1:-1]

    def test_every_cell_sequence_has_period_62(self):
        rules = RuleVector.parse(cf.ORBIT_RULES)
        states = ca_run(rules, _pack(cf.ORBIT_ROWS[0]), 3 * cf.ORBIT_PERIOD)
        for cell in range(10):
            assert sequence_period(cell_output(states, cell)) == cf.ORBIT_PERIOD

    def test_cell_output_reads_columns(self):
        states = [_pack(row) for row in cf.ORBIT_ROWS]
        assert cell_output(states, 3) == [int(row[3]) for row in cf.ORBIT_ROWS]
        with pytest.raises(ValueError, match="cell index must be nonnegative"):
            cell_output(states, -1)


class TestCharPoly:
    def test_golden_degree5(self):
        assert ca_char_poly(RuleVector.parse("01111")) == Gf2Poly.parse(cf.BASE5)

    def test_single_cell(self):
        assert ca_char_poly(RuleVector.parse("1")) == Gf2Poly.parse("11")
        assert ca_char_poly(RuleVector.parse("0")) == Gf2Poly.parse("01")

    def test_orbit_rules_are_squared_base(self):
        base = Gf2Poly.parse(cf.BASE5)
        assert ca_char_poly(RuleVector.parse(cf.ORBIT_RULES)) == base * base

    def test_matches_exact_matrix_charpoly(self):
        rng = random.Random(8)
        for _ in range(60):
            length = rng.randrange(1, 9)
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            assert ca_char_poly(rules) == cf.exact_char_poly_mod2(rules)

    def test_matches_per_mask_oracle_on_every_short_vector(self):
        # All 2,046 rule vectors of length 1-10.
        for length in range(1, 11):
            table = cf.char_poly_of_every_mask(length)
            for mask in range(1 << length):
                rules = RuleVector([(mask >> i) & 1 for i in range(length)])
                assert ca_char_poly(rules).bits == table[mask]

    def test_reversal_invariance(self):
        rng = random.Random(9)
        for _ in range(100):
            rules = RuleVector([rng.randrange(2) for _ in range(rng.randrange(1, 16))])
            assert ca_char_poly(rules) == ca_char_poly(rules.mirror())

    def test_cell_outputs_annihilated(self):
        rng = random.Random(10)
        for _ in range(25):
            length = rng.randrange(1, 13)
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            states = ca_run(rules, rng.randrange(1 << length), 4 * length + 4)
            poly = ca_char_poly(rules)
            for cell in range(length):
                assert check_annihilation(poly, 1, cell_output(states, cell))


class TestTransitionMatrix:
    def test_small_matrices(self):
        assert cf.transition_matrix(RuleVector.parse("00")) == [[0, 1], [1, 0]]
        assert cf.transition_matrix(RuleVector.parse("1")) == [[1]]

    def test_tridiagonal_symmetric(self):
        m = cf.transition_matrix(RuleVector.parse(cf.ORBIT_RULES))
        assert m == [list(col) for col in zip(*m)]
        for i in range(10):
            for j in range(10):
                if abs(i - j) > 1:
                    assert m[i][j] == 0


def _as_fit(state):
    """The fit in the oracles' (cell, state) form: the fit always claims
    cell 0, the oracles search every cell."""
    return None if state is None else (0, state)


class TestFitInitialState:
    def test_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(25):
            length = rng.randrange(2, 12)
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            hidden = rng.randrange(1 << length)
            cell = rng.randrange(length)
            target = cell_output(ca_run(rules, hidden, 4 * length), cell)
            got_state = fit_initial_state(rules, target)
            assert got_state is not None
            assert cell_output(ca_run(rules, got_state, len(target) - 1), 0) == target

    def test_zero_target(self):
        rules = RuleVector.parse("0111")
        assert fit_initial_state(rules, [0] * 8) == 0

    def test_unreachable_target_reports_none(self):
        # Both cells of a 2-cell rule-90 pair satisfy a_(n+2) = a_n, so a
        # period-4 target cannot be produced.
        rules = RuleVector.parse("00")
        assert fit_initial_state(rules, [1, 1, 0, 0, 1, 1, 0, 0]) is None

    def test_short_target_rejected(self):
        rules = RuleVector.parse("0111")
        with pytest.raises(ValueError, match="at least 8"):
            fit_initial_state(rules, [0] * 7)

    @pytest.mark.parametrize("bad", [2, -1, 256, 1.5, "1"])
    def test_non_bit_target_rejected(self, bad):
        target = [0] * 8
        target[5] = bad
        with pytest.raises(ValueError, match="sequence bits must be 0 or 1"):
            fit_initial_state(RuleVector.parse("0111"), target)

    def test_matches_elimination_oracle(self):
        # Targets: some cell's stream as is (kinds 0, 2, 4) or with one bit
        # flipped: anywhere, half of the time beyond bit 2L (kind 1), the
        # last bit (kind 3), a bit within the final L bits (kind 5); zeros
        # (kind 6) and uniform random bits (kind 7).  A third of the
        # targets are exactly 2L bits; lists, tuples and bytes take turns.
        rng = random.Random(15)
        fitted = 0
        for case in range(2400):
            length = rng.randrange(1, 25)
            n = rng.randrange(2 * length, 5 * length + 1)
            if case % 3 == 0:
                n = 2 * length
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            kind = case % 8
            if kind == 6:
                target = [0] * n
            elif kind == 7:
                target = [rng.randrange(2) for _ in range(n)]
            else:
                states = ca_run(rules, rng.randrange(1 << length), n - 1)
                target = cell_output(states, rng.randrange(length))
                beyond = 2 * length if case % 16 == 1 and n > 2 * length else 0
                low = {1: beyond, 3: n - 1, 5: n - length}.get(kind)
                if low is not None:
                    target[rng.randrange(low, n)] ^= 1
            target = (list, tuple, bytes)[case // 24 % 3](target)
            got = fit_initial_state(rules, target)
            assert _as_fit(got) == cf.elimination_fit(rules, target), (str(rules), target)
            fitted += got is not None
        assert 1200 <= fitted < 2400  # both outcomes well exercised

    @staticmethod
    def _flips(target, L):
        """The target with one bit flipped at t = 0, L-1, L, 2L-1, 2L, n-1."""
        n = len(target)
        for t in sorted({0, L - 1, L, 2 * L - 1, 2 * L, n - 1}):
            if t < n:
                flipped = bytearray(target)
                flipped[t] ^= 1
                yield t, bytes(flipped)

    def test_doubled_pairs_match_elimination_oracle(self):
        # The rules the pipeline fits: a synthesized pair doubled j times,
        # so chi = base(x^(2^j)) has few terms.  Targets of exactly 2L bits
        # and longer: a cell's stream, the same with one bit flipped at
        # each edge of the first two L-bit blocks and at the end, and zeros.
        rng = random.Random(17)
        fitted = flipped_fits = 0
        for r in range(1, 11):
            base = next(
                p for p in map(Gf2Poly, range(1 << r, 1 << (r + 1))) if is_irreducible(p)
            )
            vectors = list(synthesize_ca_pair(base))
            while len(vectors[0]) <= 160:
                for rules in vectors:
                    L = len(rules)
                    for n in (2 * L, rng.randrange(2 * L + 1, 4 * L + 2)):
                        states = ca_run(rules, rng.randrange(1, 1 << L), n - 1)
                        target = bytes(cell_output(states, rng.randrange(L)))
                        cases = [(None, target), (None, bytes(n))]
                        cases += self._flips(target, L) if L <= 40 else []
                        for t, case in cases:
                            got = fit_initial_state(rules, case)
                            assert _as_fit(got) == cf.elimination_fit(rules, case), (
                                str(rules), n, t
                            )
                            fitted += got is not None
                            # chi(0) = 1 puts each flip under a check;
                            # chi = x^L (base x) misses flips below L.
                            if base.bits & 1:
                                flipped_fits += t is not None and got is not None
                vectors = [concat_double(v) for v in vectors]
        assert fitted >= 150 and flipped_fits == 0

    def test_wide_pipeline_window_matches_column_oracle(self):
        # The (9, 5) attack: 1280 cells over a 15 872-bit keystream window.
        p1, p2 = cf.first_primitive(9), cf.first_primitive(5)
        gen = ShrinkingGenerator(Lfsr(p1, [1] + [0] * 8), Lfsr(p2, [1] + [0] * 4))
        rules = linearize_shrinking_generator(9, p2).rules_a
        L, window = len(rules), gen.shrunken_sequence(15872)
        assert (L, len(window)) == (1280, 15872)
        fit = fit_initial_state(rules, window)
        assert fit is not None and (0, fit) == cf.column_fit(rules, window)
        assert fit_initial_state(rules, window[: 2 * L]) == fit
        assert fit_initial_state(rules, bytes(len(window))) == 0
        for t, flipped in self._flips(window, L):
            got = fit_initial_state(rules, flipped)
            assert got is None and cf.column_fit(rules, flipped) is None, t

    def test_single_cell_matches_elimination_oracle(self):
        for rules in map(RuleVector.parse, ("0", "1")):
            for n in range(2, 7):
                for target in product((0, 1), repeat=n):
                    got = fit_initial_state(rules, target)
                    assert _as_fit(got) == cf.elimination_fit(rules, target), (
                        str(rules), target
                    )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_cell_stream_fits_at_cell_zero(self, data):
        delta = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=32))
        rules = RuleVector(delta)
        length = len(rules)
        state = data.draw(st.integers(0, (1 << length) - 1))
        cell = data.draw(st.integers(0, length - 1))
        n = data.draw(st.integers(2 * length, 6 * length))
        target = cell_output(ca_run(rules, state, n - 1), cell)
        fit = fit_initial_state(rules, target)
        assert fit is not None
        assert cell_output(ca_run(rules, fit, n - 1), 0) == target

    def test_unfittable_wide_target_returns_none_fast(self):
        # A random 640-bit target fits 320 cells with probability 2^-320.
        rng = random.Random(16)
        rules = RuleVector([rng.randrange(2) for _ in range(320)])
        target = [rng.randrange(2) for _ in range(640)]
        start = time.perf_counter()
        assert fit_initial_state(rules, target) is None
        assert time.perf_counter() - start < 0.1
