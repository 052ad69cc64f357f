"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line and enforcing its time budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from math import gcd

import conftest as cf
from shrinkca import (
    Gf2Poly,
    Lfsr,
    RuleVector,
    ShrinkingGenerator,
    berlekamp_massey,
    ca_char_poly,
    ca_run,
    cell_output,
    concat_double,
    format_bits,
    lc_bounds,
    linearize_shrinking_generator,
    minimal_polynomial_of_power,
    sequence_period,
    state_from_bits,
    state_to_bits,
    synthesize_ca_pair,
    verify_linearization,
)


def _criterion(number, limit_s, detail, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number} FAIL: {detail}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    print(f"criterion {number} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, budget {limit_s}s): {detail}")
    assert ok, f"criterion {number} exceeded its {limit_s}s budget ({elapsed:.2f}s)"


def test_criterion_1_reference_streams():
    def body():
        assert format_bits(cf.make_lfsr(cf.R1_POLY, cf.R1_SEED).sequence(7)) == cf.R1_STREAM
        assert (
            format_bits(cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED).sequence(15))
            == cf.R2A_STREAM
        )
        assert format_bits(cf.gen_a().shrunken_sequence(13)) == cf.KEYSTREAM_A_13

    _criterion(1, 1.0, "register streams and keystream prefix bit-exact", body)


def test_criterion_2_linearization_golden_strings():
    def body():
        p2 = Gf2Poly.parse(cf.R2B_POLY)
        assert minimal_polynomial_of_power(p2, 7) == Gf2Poly.parse(cf.BASE5)
        pair = synthesize_ca_pair(Gf2Poly.parse(cf.BASE5))
        assert tuple(str(v) for v in pair) == cf.PAIR5
        assert tuple(str(concat_double(v)) for v in pair) == cf.PAIR5_DOUBLED
        result = linearize_shrinking_generator(3, p2)
        assert (str(result.rules_a), str(result.rules_b)) == cf.PAIR20

    _criterion(2, 1.0, "base polynomial, automaton pair, and doublings bit-exact", body)


def test_criterion_3_orbit_golden():
    def body():
        rules = RuleVector.parse(cf.ORBIT_RULES)
        start = state_from_bits([int(c) for c in cf.ORBIT_ROWS[0]])
        states = ca_run(rules, start, 3 * cf.ORBIT_PERIOD)
        rows = ["".join(str(b) for b in state_to_bits(s, 10)) for s in states[:6]]
        assert rows == cf.ORBIT_ROWS
        assert states[cf.ORBIT_PERIOD] == start
        assert start not in states[1 : cf.ORBIT_PERIOD]
        for cell in range(10):
            assert sequence_period(cell_output(states, cell)) == cf.ORBIT_PERIOD

    _criterion(3, 1.0, "10-cell orbit rows and exact period 62", body)


def test_criterion_4_keystream_algebra_sweep():
    def body():
        rng = random.Random(0xACCE)
        for l1 in (2, 3, 4):
            for l2 in (3, 4, 5, 7):
                if gcd(l1, l2) != 1:
                    continue
                p1 = cf.first_primitive(l1)
                p2 = cf.first_primitive(l2)
                base = minimal_polynomial_of_power(p2, (1 << l1) - 1)
                t = ((1 << l2) - 1) << (l1 - 1)
                lo, hi = lc_bounds(l1, l2)
                n1, n2 = (1 << l1) - 1, (1 << l2) - 1
                total = n1 * n2
                picks = (
                    range(total)
                    if total <= 24
                    else rng.sample(range(total), 20)
                )
                count = 0
                for idx in picks:
                    s1, s2 = idx % n1 + 1, idx // n1 + 1
                    gen = ShrinkingGenerator(
                        Lfsr(p1, [(s1 >> i) & 1 for i in range(l1)]),
                        Lfsr(p2, [(s2 >> i) & 1 for i in range(l2)]),
                    )
                    stream = gen.shrunken_sequence(3 * t)
                    assert sequence_period(stream) == t
                    measured = berlekamp_massey(stream[: 2 * t])
                    lc = measured.linear_complexity
                    assert lo < lc <= hi
                    assert lc % base.degree == 0
                    p_hat = lc // base.degree
                    assert (1 << l1) < 4 * p_hat and p_hat <= 1 << (l1 - 1)
                    assert base**p_hat == measured.connection_poly
                    count += 1
                assert count >= 20

    _criterion(
        4,
        60.0,
        "period, factorization, and complexity bounds over the coprime grid",
        body,
    )


def test_criterion_5_doubling_squares_charpoly():
    def body():
        rng = random.Random(0xCAFE)
        for _ in range(200):
            rules = RuleVector(
                [rng.randrange(2) for _ in range(rng.randrange(1, 13))]
            )
            p = ca_char_poly(rules)
            assert ca_char_poly(concat_double(rules)) == p * p

    _criterion(5, 5.0, "doubling squares the characteristic polynomial, 200 cases", body)


def test_criterion_6_attack_end_to_end():
    def body():
        for gen_builder, period in ((cf.gen_a, 60), (cf.gen_b, 124)):
            report = verify_linearization(gen_builder())
            assert report.verdict
            assert report.verified_period == period
            window = gen_builder().shrunken_sequence(report.window_length)
            states = ca_run(
                report.matched_rules, report.initial_state, len(window) - 1
            )
            assert bytes(cell_output(states, report.matched_cell)) == window
            assert report.lc_in_bounds and report.factorization_ok

    _criterion(6, 10.0, "both reference generators replayed over a full period", body)


def test_criterion_7_oracle_equivalences():
    def body():
        # Characteristic polynomial vs exact integer matrix computation,
        # every rule vector of length <= 8.
        for length in range(1, 9):
            for mask in range(1 << length):
                rules = RuleVector([(mask >> i) & 1 for i in range(length)])
                assert ca_char_poly(rules) == cf.exact_char_poly_mod2(rules)

        # Stepping vs transition-matrix product, 100 random cases.
        rng = random.Random(0x07AC1E)
        for _ in range(100):
            length = rng.randrange(1, 16)
            rules = RuleVector([rng.randrange(2) for _ in range(length)])
            state = rng.randrange(1 << length)
            vec = state_to_bits(state, length)
            want = cf.mat_vec_mod2(cf.transition_matrix(rules), vec)
            assert state_to_bits(ca_run(rules, state, 1)[1], length) == bytes(want)

        # Keystream vs literal generate-then-filter.
        for gen in (cf.gen_a(), cf.gen_b()):
            assert gen.shrunken_sequence(300) == bytes(cf.brute_shrunken(gen, 300))

        # Berlekamp-Massey vs brute-force minimal recurrence search.
        for degree in range(2, 11):
            poly = cf.first_primitive(degree)
            for seed_value in (1, 3, (1 << degree) - 1):
                seed = [(seed_value >> i) & 1 for i in range(degree)]
                window = Lfsr(poly, seed).sequence(4 * degree)
                got = berlekamp_massey(window)
                lc, oracle = cf.brute_min_recurrence(window)
                assert (got.linear_complexity, got.connection_poly) == (lc, oracle)

    _criterion(7, 30.0, "four independent-oracle equivalences", body)


def _attack_at(l1, l2):
    def body():
        p1, p2 = cf.first_primitive(l1), cf.first_primitive(l2)
        gen = ShrinkingGenerator(
            Lfsr(p1, [1] + [0] * (l1 - 1)), Lfsr(p2, [1] + [0] * (l2 - 1))
        )
        report = verify_linearization(gen)
        period = ((1 << l2) - 1) << (l1 - 1)
        assert report.verdict and report.verified_period == period
        assert report.window_length == 2 * period
        assert report.lc_in_bounds and report.factorization_ok
        assert report.linear_complexity == l2 * report.measured_multiplicity

    return body


def test_criterion_8_attack_at_4_15():
    detail = "attack at (4, 15) over a 524272-bit window"
    _criterion(8, 0.2, detail, _attack_at(4, 15))


def test_criterion_9_attack_at_3_17():
    detail = "attack at (3, 17) over a 1048568-bit window"
    _criterion(9, 0.4, detail, _attack_at(3, 17))
