import json
import random

import pytest

import conftest as cf
import shrinkca.analysis
from shrinkca import (
    Gf2Poly,
    Lfsr,
    ShrinkingGenerator,
    berlekamp_massey,
    check_annihilation,
    fit_initial_state,
    lc_bounds,
    minimal_polynomial_of_power,
    sequence_period,
    verify_linearization,
)


class TestBerlekampMassey:
    def test_reference_register_stream(self):
        window = cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED).sequence(30)
        result = berlekamp_massey(window)
        assert result.connection_poly == Gf2Poly.parse(cf.R2A_POLY)
        assert result.linear_complexity == 4

    def test_all_zero_window(self):
        result = berlekamp_massey([0] * 40)
        assert result.linear_complexity == 0
        assert result.connection_poly == Gf2Poly.parse("1")

    def test_keystream_window(self):
        window = cf.gen_a().shrunken_sequence(120)
        result = berlekamp_massey(window)
        lo, hi = lc_bounds(3, 4)
        assert lo < result.linear_complexity <= hi
        lc, poly = cf.brute_min_recurrence(window)
        assert result.linear_complexity == lc == 16
        assert result.connection_poly == poly

    def test_degree_matches_complexity(self):
        rng = random.Random(41)
        for _ in range(50):
            window = [rng.randrange(2) for _ in range(rng.randrange(1, 60))]
            result = berlekamp_massey(window)
            if result.linear_complexity:
                assert result.connection_poly.degree == result.linear_complexity
            if result.connection_poly.degree < len(window):
                assert check_annihilation(result.connection_poly, 1, window)

    def test_matches_bruteforce_on_register_streams(self):
        rng = random.Random(42)
        for degree in range(2, 11):
            poly = cf.first_primitive(degree)
            for _ in range(3):
                seed = cf.random_nonzero_seed(rng, degree)
                window = Lfsr(poly, seed).sequence(4 * degree)
                result = berlekamp_massey(window)
                assert result.connection_poly == poly
                assert result.linear_complexity == degree
                lc, oracle_poly = cf.brute_min_recurrence(window)
                assert (result.linear_complexity, result.connection_poly) == (
                    lc,
                    oracle_poly,
                )

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            berlekamp_massey([0, 1, 2])


class TestChunkedHistoryEquivalence:
    """Berlekamp-Massey with a chunked history register against the
    brute-force recurrence search and the full-register route."""

    def test_short_adversarial_windows_vs_bruteforce(self):
        rng = random.Random(0xAD5E)
        windows = [[0] * k + [1] for k in range(20)]  # 0...01: LC = n
        windows += [[0] * k for k in range(1, 20)]
        for _ in range(150):  # random windows sit near LC = n/2
            windows.append([rng.randrange(2) for _ in range(rng.randrange(1, 23))])
        for _ in range(60):  # register streams of degree about n/2
            n = rng.randrange(4, 23)
            r = rng.randrange(max(1, n // 2 - 1), n // 2 + 1)
            reg = Lfsr(Gf2Poly(rng.randrange(1 << r, 1 << (r + 1))),
                       [rng.randrange(2) for _ in range(r)])
            windows.append(reg.sequence(n))
        for window in windows:
            got = berlekamp_massey(window)
            lc, poly = cf.brute_min_recurrence(window)
            assert got.linear_complexity == lc
            if poly is not None:
                assert got.connection_poly == poly
            if lc < len(window):
                assert check_annihilation(got.connection_poly, 1, window)

    def test_one_at_the_end_has_full_complexity(self):
        for n in (1, 31, 32, 33, 64, 65, 500):
            window = [0] * (n - 1) + [1]
            result = berlekamp_massey(window)
            assert result.linear_complexity == n
            assert result.connection_poly == Gf2Poly((1 << n) | 1)
            assert cf.full_register_bm(window) == (n, result.connection_poly)

    def test_long_windows_vs_full_register(self):
        # Complexities from 40 to 1000 push the history through several
        # widenings (it starts at 64 bits and grows fourfold past half).
        rng = random.Random(0xB3)
        windows = [[rng.randrange(2) for _ in range(n)] for n in (80, 300, 2000)]
        windows.append([0] * 1500 + [1] + [0] * 300)
        # A long low-complexity stretch, then a break: the mask jumps far
        # past the history width, and the bits it now reads are not zero.
        for r in (2, 5, 9):
            reg = Lfsr(cf.first_primitive(r), cf.random_nonzero_seed(rng, r))
            broken = bytearray(reg.sequence(900))
            broken[400 + r] ^= 1
            windows.append(broken)
        for r in (40, 150, 600):
            reg = Lfsr(Gf2Poly(rng.randrange(1 << r, 1 << (r + 1)) | 1),
                       cf.random_nonzero_seed(rng, r))
            windows.append(reg.sequence(2 * r + rng.randrange(1, 500)))
        windows.append(cf.gen_b().shrunken_sequence(1000))
        for window in windows:
            got = berlekamp_massey(window)
            assert (got.linear_complexity, got.connection_poly) == cf.full_register_bm(window)
            assert berlekamp_massey(bytes(window)) == got

    @pytest.mark.parametrize("bad", [[0, 1, 2], [1, -1], [0, 48], [1, "1"]])
    def test_rejects_non_bits_anywhere(self, bad):
        with pytest.raises(ValueError):
            berlekamp_massey(bad)


class TestCheckAnnihilation:
    def test_register_stream_annihilated(self):
        window = cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED).sequence(45)
        assert check_annihilation(Gf2Poly.parse(cf.R2A_POLY), 1, window)

    def test_flipped_bit_detected(self):
        window = bytearray(cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED).sequence(45))
        window[20] ^= 1
        assert not check_annihilation(Gf2Poly.parse(cf.R2A_POLY), 1, window)

    def test_keystream_killed_by_fourth_power(self):
        window = cf.gen_b().shrunken_sequence(3 * 124)
        assert check_annihilation(Gf2Poly.parse(cf.BASE5), 4, window)

    def test_window_too_short(self):
        with pytest.raises(ValueError, match="shorter"):
            check_annihilation(Gf2Poly.parse("11001"), 2, [0] * 8)

    def test_multiplicity_validation(self):
        with pytest.raises(ValueError):
            check_annihilation(Gf2Poly.parse("11001"), 0, [0] * 8)

    def test_operator_span_checked_before_the_power(self, monkeypatch):
        def no_power(self, k):
            raise AssertionError("the operator power was formed")

        monkeypatch.setattr(Gf2Poly, "__pow__", no_power)
        q = Gf2Poly(0b1011011)
        with pytest.raises(ValueError, match="operator span 6000000000001$"):
            check_annihilation(q, 10**12, b"\0" * 10)
        with pytest.raises(ValueError, match="zero operator"):
            check_annihilation(Gf2Poly(0), 10**12, b"\0" * 10)
        with pytest.raises(ValueError, match="multiplicity"):
            check_annihilation(q, 0, b"\0" * 10)

    def test_packed_matches_loop(self):
        rng = random.Random(0xA7)
        for _ in range(300):
            q = Gf2Poly(rng.randrange(1, 1 << rng.randrange(1, 9)))
            mult = rng.randrange(1, 4)
            span = (q**mult).degree
            n = span + 1 + rng.randrange(0, 200)
            if rng.random() < 0.5 and span:
                # A stream q**mult annihilates, sometimes with one flipped bit.
                reg = Lfsr(q**mult, [rng.randrange(2) for _ in range(span)])
                window = bytearray(reg.sequence(n))
                if rng.random() < 0.3:
                    window[rng.randrange(n)] ^= 1
            else:
                window = [rng.randrange(2) for _ in range(n)]
            assert check_annihilation(q, mult, window) == cf.loop_annihilation(q, mult, window)
            for i in (0, n - 1):  # the first and last positions count too
                window[i] ^= 1
                assert check_annihilation(q, mult, window) == cf.loop_annihilation(
                    q, mult, window
                )
                window[i] ^= 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            check_annihilation(Gf2Poly.parse("11"), 1, [0, 1, 2])


class TestLcBounds:
    def test_values(self):
        assert lc_bounds(3, 4) == (8, 16)
        assert lc_bounds(3, 5) == (10, 20)
        assert lc_bounds(2, 3) == (3, 6)

    def test_control_length_below_two_rejected(self):
        with pytest.raises(ValueError):
            lc_bounds(1, 4)

    def test_data_length_below_two_rejected(self):
        # A length-1 data register emits only ones: LC 1 at every l1.
        with pytest.raises(ValueError, match="data length"):
            lc_bounds(3, 1)


class TestKeystreamAlgebraSweep:
    def test_single_configuration(self):
        # One (3, 5) configuration in depth; the acceptance suite runs the
        # full grid.
        rng = random.Random(43)
        p1, p2 = cf.first_primitive(3), cf.first_primitive(5)
        base = minimal_polynomial_of_power(p2, 7)
        t = 31 * 4
        for _ in range(5):
            gen = ShrinkingGenerator(
                Lfsr(p1, cf.random_nonzero_seed(rng, 3)),
                Lfsr(p2, cf.random_nonzero_seed(rng, 5)),
            )
            window = gen.shrunken_sequence(2 * t)
            assert sequence_period(gen.shrunken_sequence(3 * t)) == t
            result = berlekamp_massey(window)
            assert result.linear_complexity % 5 == 0
            p_hat = result.linear_complexity // 5
            assert 2 < p_hat <= 4
            assert base**p_hat == result.connection_poly


class TestVerifyLinearization:
    def test_generator_a(self):
        report = verify_linearization(cf.gen_a())
        assert report.verdict
        assert report.linearization.length == 16
        assert report.linearization.multiplicity == 4
        assert report.lc_bounds == (8, 16)
        assert report.lc_in_bounds
        assert report.factorization_ok
        assert report.measured_multiplicity == 4
        assert report.verified_period == 60
        assert report.window_length == 120

    def test_generator_b(self):
        report = verify_linearization(cf.gen_b())
        assert report.verdict
        assert report.verified_period == 124
        assert str(report.linearization.rules_a) == cf.PAIR20[0]
        assert str(report.linearization.rules_b) == cf.PAIR20[1]
        assert report.matched_rules in (
            report.linearization.rules_a,
            report.linearization.rules_b,
        )

    def test_window_budget_boundary(self, monkeypatch):
        # Generator A's window is 2 * 60 bits; the check comes before any
        # keystream or automaton is built.
        monkeypatch.setattr(shrinkca.analysis, "MAX_WINDOW_BITS", 120)
        assert verify_linearization(cf.gen_a()).window_length == 120
        monkeypatch.setattr(shrinkca.analysis, "MAX_WINDOW_BITS", 119)
        monkeypatch.setattr(shrinkca.analysis, "linearize_shrinking_generator", None)
        with pytest.raises(ValueError, match="window would be 120 bits, over 119"):
            verify_linearization(cf.gen_a())

    def test_results_have_slots(self):
        report = verify_linearization(cf.gen_a())
        bm = berlekamp_massey(cf.gen_a().shrunken_sequence(32))
        assert not hasattr(report, "__dict__") and not hasattr(bm, "__dict__")
        assert bm._replace(linear_complexity=0).linear_complexity == 0
        moved = report._replace(verified_period=7)
        assert moved.to_dict() == {**report.to_dict(), "verified_period": 7}
        assert moved.to_text() == report.to_text().replace("period 60", "period 7")
        with pytest.raises(AttributeError):
            report.verdict = False
        with pytest.raises(AttributeError):
            bm.linear_complexity = 0
        assert repr(bm).startswith("BmResult(connection_poly=Gf2Poly(")
        assert repr(report).startswith("AttackReport(generator=ShrinkingGenerator(")
        assert repr(report).endswith(", verified_period=60, verdict=True)")

    def test_report_generator_cannot_change_after_the_verdict(self):
        report = verify_linearization(cf.gen_a())
        shown = report.to_dict()
        for name in ("r1", "r2", "other"):
            with pytest.raises(AttributeError):
                setattr(report.generator, name, cf.make_lfsr(cf.R2B_POLY, cf.R2B_SEED))
        with pytest.raises(AttributeError):
            report.generator.r2.charpoly = Gf2Poly.parse(cf.R2B_POLY)
        assert report.to_dict() == shown

    def test_replay_is_bit_exact(self):
        from shrinkca import ca_run, cell_output

        report = verify_linearization(cf.gen_b())
        window = cf.gen_b().shrunken_sequence(report.window_length)
        states = ca_run(report.matched_rules, report.initial_state, len(window) - 1)
        assert bytes(cell_output(states, report.matched_cell)) == window

    def test_degree_one_control_register(self):
        # An always-one control register passes the data stream through;
        # the complexity bracket is undefined there and stays unreported.
        gen = ShrinkingGenerator(
            cf.make_lfsr("11", "1"), cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED)
        )
        report = verify_linearization(gen)
        assert report.verdict
        assert report.lc_bounds is None and report.lc_in_bounds is None
        assert report.measured_multiplicity == 1
        assert report.verified_period == 15
        assert report.linear_complexity == 4

    def test_degree_one_data_register(self):
        # The data stream is all ones, so the keystream is constant: no
        # bracket, and multiplicity 1 is the measured factorization.
        for p1, s1 in (("111", "10"), ("1101", "011"), ("110111", "10110")):
            gen = ShrinkingGenerator(cf.make_lfsr(p1, s1), cf.make_lfsr("11", "1"))
            report = verify_linearization(gen)
            assert report.verdict
            assert report.linear_complexity == 1
            assert report.lc_bounds is None and report.lc_in_bounds is None
            assert report.factorization_ok and report.measured_multiplicity == 1

    def test_rejects_invalid_generators(self):
        nonprim = ShrinkingGenerator(
            cf.make_lfsr("1011", "100"), cf.make_lfsr("11111", "1000")
        )
        with pytest.raises(ValueError, match="primitive"):
            verify_linearization(nonprim)
        zeroseed = ShrinkingGenerator(
            cf.make_lfsr("1011", "000"), cf.make_lfsr("11001", "1000")
        )
        with pytest.raises(ValueError, match="nonzero"):
            verify_linearization(zeroseed)

    def test_check_order(self):
        # Control polynomial first, then the seeds, then the data polynomial.
        gen = ShrinkingGenerator(cf.make_lfsr("1011", "000"), cf.make_lfsr("11111", "0000"))
        with pytest.raises(ValueError, match="register seeds must be nonzero"):
            verify_linearization(gen)
        gen = ShrinkingGenerator(cf.make_lfsr("1011", "100"), cf.make_lfsr("11111", "1000"))
        with pytest.raises(ValueError, match="data polynomial 11111 must be primitive"):
            verify_linearization(gen)
        gen = ShrinkingGenerator(cf.make_lfsr("1111", "000"), cf.make_lfsr("11111", "0000"))
        with pytest.raises(ValueError, match="control polynomial 1111 must be primitive"):
            verify_linearization(gen)

    def test_zero_seed_is_refused_before_synthesis(self, monkeypatch, capsys):
        import shrinkca.linearizer
        from shrinkca.cli import main

        def unreachable(p):
            raise AssertionError("synthesis ran before the seed check")

        monkeypatch.setattr(shrinkca.linearizer, "synthesize_ca_pair", unreachable)
        for s1, s2 in (("000", "1000"), ("100", "0000")):
            gen = ShrinkingGenerator(cf.make_lfsr("1011", s1), cf.make_lfsr("11001", s2))
            with pytest.raises(ValueError, match="register seeds must be nonzero"):
                verify_linearization(gen)
        argv = ["attack", "--p1", "1011", "--s1", "100", "--p2", "11001", "--s2", "0000"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "shrinkca: error: register seeds must be nonzero\n")

    def test_each_polynomial_tested_for_primitivity_once(self, primitivity_calls):
        gen = cf.gen_b()
        verify_linearization(gen)
        assert primitivity_calls == [gen.r1.charpoly, gen.r2.charpoly]

    def test_every_stage_is_reached_through_its_public_name(self, monkeypatch):
        # A tracer that wraps the public names, where the caller looks them
        # up, sees every stage of one attack, in pipeline order.
        import shrinkca.analysis
        import shrinkca.linearizer

        reached = []

        def spy(owner, name):
            original = getattr(owner, name)

            def spied(*args, **kwargs):
                reached.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spied)

        stages = (
            (shrinkca.analysis, "linearize_shrinking_generator"),
            (shrinkca.linearizer, "minimal_polynomial_of_power"),
            (shrinkca.linearizer, "synthesize_ca_pair"),
            (shrinkca.linearizer, "concat_double"),
            (ShrinkingGenerator, "shrunken_sequence"),
            (Lfsr, "sequence"),
            (shrinkca.analysis, "fit_initial_state"),
            (shrinkca.analysis, "berlekamp_massey"),
        )
        for owner, name in stages:
            spy(owner, name)
        assert verify_linearization(cf.gen_b()).verdict
        assert list(dict.fromkeys(reached)) == [name for _, name in stages]

    def test_only_rules_a_is_fitted(self, monkeypatch):
        # rules_b has the same characteristic polynomial, hence the same
        # cell-1 solution space: a window rules_a cannot replay is not
        # retried on it.
        import shrinkca.analysis

        fitted = []

        def counted(rules, target):
            fitted.append(rules)
            return fit_initial_state(rules, target)

        monkeypatch.setattr(shrinkca.analysis, "fit_initial_state", counted)
        report = verify_linearization(cf.gen_b())
        assert report.verdict and report.matched_cell == 0
        assert fitted == [report.linearization.rules_a] == [report.matched_rules]
        window = bytearray(cf.gen_b().shrunken_sequence(report.window_length))
        window[-1] ^= 1
        monkeypatch.setattr(
            ShrinkingGenerator, "shrunken_sequence", lambda self, n: bytes(window[:n])
        )
        report = verify_linearization(cf.gen_b())
        assert not report.verdict and report.matched_rules is None
        assert fitted[1:] == [report.linearization.rules_a]
        assert fit_initial_state(report.linearization.rules_b, window) is None

    def test_linearization_ignores_control_polynomial(self):
        # Two generators sharing (l1, p2) but with different control
        # polynomials map to identical automaton pairs.
        alt = ShrinkingGenerator(
            cf.make_lfsr("1101", "110"), cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED)
        )
        a = verify_linearization(cf.gen_a())
        b = verify_linearization(alt)
        assert a.linearization == b.linearization

    def test_window_beyond_the_bound_falls_back_to_full_bm(self, monkeypatch):
        # Windows whose complexity exceeds lin.length are not replayed, and
        # the whole-window BM is reported: generator A with one bit flipped,
        # and a (2, 1) generator, whose window is exactly 2L = 4 bits, with
        # LC = 4 bits in place of its keystream.
        corrupted = bytearray(cf.gen_a().shrunken_sequence(120))
        corrupted[100] ^= 1
        short = ShrinkingGenerator(cf.make_lfsr("111", "10"), cf.make_lfsr("11", "1"))
        for gen, window in ((cf.gen_a(), corrupted), (short, [0, 0, 0, 1])):
            monkeypatch.setattr(
                ShrinkingGenerator, "shrunken_sequence", lambda self, n: bytes(window[:n])
            )
            report = verify_linearization(gen)
            lc, _ = cf.full_register_bm(window)
            assert lc > report.linearization.length
            assert report.window_length == len(window)
            assert report.linear_complexity == lc
            assert not report.factorization_ok and not report.verdict

    @pytest.mark.parametrize(
        "window_poly,inside",
        [(lambda base: cf.first_primitive(12), True), (lambda base: base**5, False)],
        ids=["primitive-lc12", "base-to-the-p-plus-1-lc20"],
    )
    def test_factorization_needs_a_bounded_power_of_the_base(
        self, monkeypatch, window_poly, inside
    ):
        # At (3, 4) the bracket is (8, 16], deg(base) = 4 and p = 4.  A
        # primitive degree-12 stream lies inside it but is no power of the
        # base; base^(p+1) is one, but above the bracket.
        gen = cf.gen_a()
        poly = window_poly(verify_linearization(gen).linearization.base_poly)
        window = Lfsr(poly, [0] * (poly.degree - 1) + [1]).sequence(120)
        monkeypatch.setattr(ShrinkingGenerator, "shrunken_sequence", lambda self, n: window[:n])
        report = verify_linearization(gen)
        assert report.linear_complexity == poly.degree
        assert report.lc_in_bounds is inside
        assert not report.factorization_ok and report.measured_multiplicity is None
        assert "factorization FAILED" in report.to_text() and not report.verdict

    def test_report_serialization(self):
        gen = cf.gen_a()
        report = verify_linearization(gen)
        assert report.generator is gen and repr(gen) in repr(report)
        d = report.to_dict()
        assert d["verdict"] is True
        assert d["generator"]["p1"] == cf.R1_POLY
        assert d["linearization"]["L"] == 16
        assert d["matched_cell"] == report.matched_cell
        assert len(d["initial_state"]) == 16
        json.dumps(d)  # must be JSON-ready
        text = report.to_text()
        assert "LINEAR" in text
        assert str(report.linearization.rules_a) in text
