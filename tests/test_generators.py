import random
import tracemalloc
from itertools import compress
from math import gcd, isqrt

import pytest

import conftest as cf
from shrinkca import (
    MAX_WINDOW_BITS,
    Gf2Poly,
    Lfsr,
    ShrinkingGenerator,
    format_bits,
    parse_bits,
    sequence_period,
)


class TestBitText:
    def test_parse(self):
        assert parse_bits("1010") == bytes([1, 0, 1, 0])
        assert parse_bits(" 01 ") == bytes([0, 1])

    @pytest.mark.parametrize("bad", ["", "12", "abc", "1 0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_bits(bad)

    def test_roundtrip(self):
        assert format_bits(parse_bits("100110")) == "100110"

    @pytest.mark.parametrize(
        "bad",
        [[2, 0], [1, -1], [1, "1"], b"\0\2", "01"],
        ids=["two", "negative", "text-item", "byte-two", "string"],
    )
    def test_format_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="sequence bits must be 0 or 1"):
            format_bits(bad)


class TestLfsr:
    def test_reference_stream_degree3(self):
        reg = cf.make_lfsr(cf.R1_POLY, cf.R1_SEED)
        assert format_bits(reg.sequence(7)) == cf.R1_STREAM

    def test_reference_stream_degree4(self):
        reg = cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED)
        assert format_bits(reg.sequence(15)) == cf.R2A_STREAM

    def test_zero_seed_yields_zeros(self):
        reg = cf.make_lfsr(cf.R2A_POLY, "0000")
        assert reg.sequence(20) == bytes(20)

    def test_generation_is_pure(self):
        reg = cf.make_lfsr(cf.R1_POLY, cf.R1_SEED)
        first = reg.sequence(50)
        assert reg.sequence(50) == first
        assert reg.state == b"\1\0\0" == first[:3]

    def test_register_is_immutable(self):
        # A new polynomial on an old register would leave its seed the
        # wrong length: length and state would describe two registers.
        reg = cf.make_lfsr(cf.R1_POLY, cf.R1_SEED)
        for name, value in [
            ("charpoly", Gf2Poly.parse(cf.R2A_POLY)),
            ("state", (0, 0, 1)),
            ("_lags", (1,)),
            ("other", 0),
        ]:
            with pytest.raises(AttributeError):
                setattr(reg, name, value)
        assert reg.length == 3 and reg.state == b"\1\0\0"
        assert format_bits(reg.sequence(7)) == cf.R1_STREAM

    def test_short_counts(self):
        reg = cf.make_lfsr(cf.R1_POLY, cf.R1_SEED)
        assert reg.sequence(0) == b""
        assert reg.sequence(2) == bytes([1, 0])
        with pytest.raises(ValueError, match="count must be nonnegative"):
            reg.sequence(-1)

    def test_seed_length_must_match_degree(self):
        with pytest.raises(ValueError):
            Lfsr(Gf2Poly.parse(cf.R1_POLY), [1, 0])

    def test_constant_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(Gf2Poly.parse("1"), [])

    @pytest.mark.parametrize("bad", [2, 1.5, 1.7, -1, 1.0])
    def test_seed_bits_must_be_binary(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            Lfsr(Gf2Poly.parse("111"), [bad, 0])

    def test_bool_seed_bits_are_ints(self):
        # Whatever 0/1 sequence seeds it, bools included, the state is the
        # exact bytes of the register's first r output bits, as streams are held.
        class Bits(bytes):
            pass

        poly = Gf2Poly.parse(cf.R2A_POLY)
        bits = b"\1\0\1\1"
        seeds = [[True, False, True, True], [1, 0, 1, 1], (1, 0, 1, 1), bytearray(bits)]
        seeds += [memoryview(bits), bits, Bits(bits)]
        for seed in seeds:
            reg = Lfsr(poly, seed)
            assert type(reg.state) is bytes and reg.state == bits == reg.sequence(reg.length)
            assert reg == Lfsr(poly, bits) and repr(reg) == "Lfsr(Gf2Poly('11001'), [1, 0, 1, 1])"

    def test_high_degree_seed_is_held_as_given(self):
        # A bytes seed is the state itself: a 2,000,001-bit register holds no
        # copy of it, where a tuple of its bits would hold 8 bytes a bit.
        poly, seed = Gf2Poly.parse("1+x+x^2000001"), b"\1" * 2_000_001
        tracemalloc.start()
        try:
            reg = Lfsr(poly, seed)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reg.state == seed and held < 4 << 20

    def test_high_degree_register_in_linear_time(self):
        # Degree 2**20: the taps are read from the coefficient text when the
        # register steps, and to_terms reads that text once, so building the
        # register, printing its polynomial and stepping past its seed take
        # time linear in the degree.  With the seed 0...01, bits r..r+3 are 0.
        code = (
            "from shrinkca import Gf2Poly, Lfsr, format_bits\n"
            "r = 1 << 20\n"
            "reg = Lfsr(Gf2Poly.parse(f'1+x^3+x^{r}'), bytes(r - 1) + bytes([1]))\n"
            "print(reg.charpoly.to_terms())\n"
            "print(format_bits(reg.sequence(r + 4)[r - 1 :]))\n"
        )
        out = cf.bare_python(code, timeout=10).splitlines()
        assert out == [f"1+x^3+x^{1 << 20}", "10000"]

    def test_pn_period_and_balance(self):
        # Primitive polynomial of degree r: every nonzero seed gives period
        # exactly 2^r - 1 with 2^(r-1) ones per period.
        for r in range(2, 9):
            poly = cf.first_primitive(r)
            t = (1 << r) - 1
            seeds = range(1, 1 << r) if r <= 5 else (1, 3, (1 << r) - 1, 1 << (r - 1))
            for seed_value in seeds:
                seed = [(seed_value >> i) & 1 for i in range(r)]
                window = Lfsr(poly, seed).sequence(3 * t)
                assert sequence_period(window) == t
                assert sum(window[:t]) == 1 << (r - 1)


class TestShrinkingGenerator:
    def test_keystream_prefix(self):
        assert format_bits(cf.gen_a().shrunken_sequence(13)) == cf.KEYSTREAM_A_13

    def test_first_kept_bit_is_first_data_bit(self):
        gen = cf.gen_a()  # control seed starts with 1
        assert gen.shrunken_sequence(1) == bytes([gen.r2.sequence(1)[0]])

    def test_window_period_60(self):
        window = cf.gen_a().shrunken_sequence(120)
        assert sequence_period(window) == 60

    def test_matches_bruteforce_filter(self):
        for gen in (cf.gen_a(), cf.gen_b()):
            assert gen.shrunken_sequence(200) == bytes(cf.brute_shrunken(gen, 200))
        rng = random.Random(99)
        for _ in range(10):
            l1, l2 = rng.choice([(2, 3), (3, 4), (3, 5), (4, 5), (2, 7)])
            gen = ShrinkingGenerator(
                Lfsr(cf.first_primitive(l1), cf.random_nonzero_seed(rng, l1)),
                Lfsr(cf.first_primitive(l2), cf.random_nonzero_seed(rng, l2)),
            )
            assert gen.shrunken_sequence(150) == bytes(cf.brute_shrunken(gen, 150))

    def test_zero_control_seed_rejected(self):
        gen = ShrinkingGenerator(
            cf.make_lfsr(cf.R1_POLY, "000"), cf.make_lfsr(cf.R2A_POLY, cf.R2A_SEED)
        )
        with pytest.raises(ValueError, match="no ones"):
            gen.shrunken_sequence(5)
        assert gen.shrunken_sequence(0) == b""

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            cf.gen_a().shrunken_sequence(-1)

    def test_noncoprime_lengths_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            ShrinkingGenerator(
                cf.make_lfsr("1101", "100"), cf.make_lfsr("1011011", "100000")
            )

    def test_period_formula_sweep(self):
        # Coprime length pairs, primitive polynomials, sampled nonzero seeds:
        # keystream period is (2^l2 - 1) * 2^(l1 - 1), seen over 3 periods.
        rng = random.Random(0x5EED)
        for l1 in range(1, 5):
            for l2 in range(2, 9):
                if gcd(l1, l2) != 1:
                    continue
                t = ((1 << l2) - 1) << (l1 - 1)
                p1, p2 = cf.first_primitive(l1), cf.first_primitive(l2)
                for _ in range(4):
                    gen = ShrinkingGenerator(
                        Lfsr(p1, cf.random_nonzero_seed(rng, l1)),
                        Lfsr(p2, cf.random_nonzero_seed(rng, l2)),
                    )
                    assert sequence_period(gen.shrunken_sequence(3 * t)) == t

    def test_kept_bits_per_control_period(self):
        # Each full control period contributes exactly 2^(l1-1) kept bits.
        for l1 in (2, 3, 4):
            p1 = cf.first_primitive(l1)
            ones = sum(Lfsr(p1, [1] + [0] * (l1 - 1)).sequence((1 << l1) - 1))
            assert ones == 1 << (l1 - 1)


class TestSequenceUtilities:
    def test_period_reference_stream(self):
        reg = cf.make_lfsr(cf.R1_POLY, cf.R1_SEED)
        assert sequence_period(reg.sequence(14)) == 7

    def test_period_all_zero(self):
        assert sequence_period([0] * 9) == 1

    def test_period_keystream_180(self):
        assert sequence_period(cf.gen_a().shrunken_sequence(180)) == 60

    def test_period_empty_raises(self):
        with pytest.raises(ValueError):
            sequence_period([])

    def test_period_matches_naive_oracle(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randrange(1, 40)
            seq = [rng.randrange(2) for _ in range(n)]
            assert sequence_period(seq) == cf.naive_period(seq)


class TestLeapGeneratorEquivalence:
    """The block-leaping register and keystream against the bit-by-bit
    routes in conftest, on arbitrary (also singular) polynomials."""

    def test_register_counts_around_edges(self):
        rng = random.Random(0x1EA9)
        for _ in range(300):
            r = rng.randrange(1, 20)
            poly = Gf2Poly(rng.randrange(1 << r, 1 << (r + 1)))
            reg = Lfsr(poly, [rng.randrange(2) for _ in range(r)])
            for n in (0, 1, rng.randrange(r), r, r + 1, rng.randrange(r, 8 * r + 40)):
                assert reg.sequence(n) == bytes(cf.literal_lfsr(reg, n))

    def test_register_past_largest_block(self):
        # Blocks double to 2**k bits at r * 2**k stepped bits, with no upper
        # bound: lengths on and one off that grid for k = 12..16, and one off
        # it, both stepped and through the cycle (for small r).
        rng = random.Random(0xB10C)
        for r in range(1, 21):
            poly = Gf2Poly(rng.randrange(1 << r, 1 << (r + 1)))
            reg = Lfsr(poly, cf.random_nonzero_seed(rng, r))
            literal = bytes(cf.literal_lfsr(reg, (r << 16) + 1))
            off = rng.randrange((r << 15) + 2, r << 16)
            for n in [off] + [(r << k) + d for k in range(12, 17) for d in (-1, 0, 1)]:
                assert reg._steps(n, reg.state) == reg.sequence(n) == literal[:n]

    @pytest.mark.parametrize(
        "poly",
        [cf.first_primitive(r).to_bitstring() for r in (1, 2, 5, 9, 12)]
        # irreducible of order 5, (1+x)**4, x**3, x**8, a factor x, a factor x**2
        + ["11111", "10001", "0001", "000000001", "0101", "0011001"],
    )
    def test_register_around_one_cycle(self, poly):
        # A register is stepped for at most 2**r + 2r bits, which hold its
        # first cycle, and that cycle is repeated: counts on and one off that
        # edge and several cycles long, from three seeds.
        p = Gf2Poly.parse(poly)
        r, rng = p.degree, random.Random(poly)
        edge = (1 << r) + 2 * r
        top = 5 * edge + rng.randrange(1, 7)
        for seed in ([1] + [0] * (r - 1), [rng.randrange(2) for _ in range(r)], [0] * r):
            reg = Lfsr(p, seed)
            literal = bytes(cf.literal_lfsr(reg, top))
            bits, t = reg._cycle(edge)
            assert t and bits == literal[: r + t]
            assert literal[r + t :] == literal[r : top - t]
            for n in (edge - 1, edge, edge + 1, 3 * edge + 1, top):
                assert reg.sequence(n) == literal[:n]

    @pytest.mark.parametrize(
        "p1,t,w,l2",
        [
            (cf.first_primitive(l1).to_bitstring(), (1 << l1) - 1, 1 << (l1 - 1), l2)
            for l1, l2 in ((1, 4), (2, 3), (3, 4), (3, 5), (4, 5), (5, 4), (6, 5), (9, 5))
        ]
        + [("1001", 3, 1, 4), ("11111", 5, 2, 3)],
    )
    def test_keystream_around_the_route_edges(self, p1, t, w, l2):
        # Seeded 10...0, the control has a head of one 1 and then a cycle of
        # t bits with w ones.  Counts that need q = 1 or 2 cycles, and
        # q = w + 1, w, w - 1, ending on and one past a cycle: both sides of
        # the edge between the translate and the slices.
        rng = random.Random(p1)
        control = cf.make_lfsr(p1, "1".ljust(len(p1) - 1, "0"))
        r = control.length
        assert sum(cf.literal_lfsr(control, r + t)[r:]) == w
        gen = ShrinkingGenerator(
            control, Lfsr(cf.first_primitive(l2), cf.random_nonzero_seed(rng, l2))
        )
        qs = {1, 2} | ({w - 1, w, w + 1} - {0} if w <= 32 else set())
        expected = bytes(cf.brute_shrunken(gen, 1 + max(qs) * w))
        for q in sorted(qs):
            for n in (1 + (q - 1) * w + 1, 1 + q * w):
                assert gen.shrunken_sequence(n) == expected[:n]

    def test_keystream_from_a_long_control_prefix(self):
        # A degree-20 control cycles every 2**20 - 1 bits; a short count is
        # read from a prefix of it.
        rng = random.Random(0x20)
        p1, p2 = cf.first_primitive(20), cf.first_primitive(3)
        for _ in range(4):
            gen = ShrinkingGenerator(
                Lfsr(p1, cf.random_nonzero_seed(rng, 20)),
                Lfsr(p2, cf.random_nonzero_seed(rng, 3)),
            )
            control, data = cf.literal_lfsr(gen.r1, 1000), cf.literal_lfsr(gen.r2, 1000)
            kept = bytes(d for c, d in zip(control, data) if c)
            assert len(kept) >= 100
            for n in (1, rng.randrange(2, 100), 100):
                assert gen.shrunken_sequence(n) == kept[:n]

    def test_keystream_from_a_doubled_degree_41_prefix(self):
        # 1 + x^3 + x^41 seeded 10...0 has few ones early: the first prefix
        # of 2n + 2r + 2 bits holds fewer than n of them, so the register
        # steps on from the prefix's last r bits before its ones suffice.
        p1, s1, p2, s2 = "1001" + "0" * 37 + "1", "1" + "0" * 40, "11001", "1000"
        gen = ShrinkingGenerator(cf.make_lfsr(p1, s1), cf.make_lfsr(p2, s2))
        control, data = cf.literal_lfsr(gen.r1, 4000), cf.literal_lfsr(gen.r2, 4000)
        kept = bytes(d for c, d in zip(control, data) if c)
        assert len(kept) >= 1000
        for n in (10, 100, 1000):
            assert gen.shrunken_sequence(n) == kept[:n]

    @pytest.mark.parametrize("l1,l2", [(1, 2), (2, 3), (9, 2), (21, 2)])
    def test_primitive_control_at_the_window_bound(self, l1, l2):
        # A primitive control clocks fewer than 2n + 2**L1 + L1 data bits,
        # far below the bound 4n + MAX_WINDOW_BITS, so n = 2**22 runs.  The
        # keystream repeats every (2**L2 - 1) * 2**(L1 - 1) < n bits and
        # starts with the literally filtered register pairs.
        n, period = MAX_WINDOW_BITS, ((1 << l2) - 1) << (l1 - 1)
        rng = random.Random(l1)
        gen = ShrinkingGenerator(
            Lfsr(cf.first_primitive(l1), cf.random_nonzero_seed(rng, l1)),
            Lfsr(cf.first_primitive(l2), cf.random_nonzero_seed(rng, l2)),
        )
        out = gen.shrunken_sequence(n)
        control, data = cf.literal_lfsr(gen.r1, 8000), cf.literal_lfsr(gen.r2, 8000)
        kept = bytes(d for c, d in zip(control, data) if c)
        assert len(out) == n and out.startswith(kept) and out[period:] == out[:-period]

    def test_sparse_control_refused_past_the_clocking_bound(self):
        # 1 + x^5 seeded 10000 keeps data bits 0, 5, 10, ...: the n-th kept
        # bit is data bit 5n - 5, so n kept bits clock 5n - 4 data bits,
        # which is the bound 4n + 2**22 at n = 2**22 + 4 and one bit over it
        # at n = 2**22 + 5.
        gen = ShrinkingGenerator(cf.make_lfsr("100001", "10000"), cf.make_lfsr("11001", "1000"))
        n = MAX_WINDOW_BITS + 4
        kept = bytes(cf.literal_lfsr(gen.r2, 11)[::5])  # data period 15: 3 kept bits
        assert gen.shrunken_sequence(n) == (kept * (n // 3 + 1))[:n]
        msg = "4194309 kept bits would clock 20971541 register bits, over 20971540$"
        with pytest.raises(ValueError, match=msg):
            gen.shrunken_sequence(n + 1)

    def test_open_control_prefix_steps_on_within_the_bound(self):
        # 1 + x^48 + x^82 seeded 10...0 holds about one one in four bits and
        # its cycle does not close in its first 2n + 166 bits.  Its 2**20th
        # one is bit 4,203,524, inside the bound 4n + 2**22 = 8n, which two
        # doublings of that prefix, to 8n + 664 bits, would pass.
        gen = ShrinkingGenerator(
            cf.make_lfsr("1+x^48+x^82", "1" + "0" * 81), cf.make_lfsr("1+x^8+x^19", "1" + "0" * 18)
        )
        n = 1 << 20
        control, data = gen.r1.sequence(8 * n), gen.r2.sequence(8 * n)
        assert gen.shrunken_sequence(n) == bytes(compress(data, control))[:n]

    def test_open_control_prefix_steps_on_to_the_bound(self):
        # 1 + x^r seeded 0...01, r = 1,500,001, has its ones at bits kr - 1:
        # two in its first 2n + 2r + 2 bits, where its cycle is still open.
        # At n = 3 the prefix grows to the bound 4n + 2**22 = 4,194,316 and
        # no further: its third one, bit 3r - 1, and the end of its first
        # cycle, at 3r bits, both lie past it.  The refusal names the one
        # bit more that stepping on would clock.  Its two ones fall on data
        # bits 0 and 1 mod 15, the data period.
        r = 1_500_001
        data = cf.make_lfsr("11001", "1000")
        gen = ShrinkingGenerator(Lfsr(Gf2Poly.parse(f"1+x^{r}"), [0] * (r - 1) + [1]), data)
        assert gen.shrunken_sequence(2) == data.sequence(2)
        msg = "3 kept bits would clock 4194317 register bits, over 4194316$"
        with pytest.raises(ValueError, match=msg):
            gen.shrunken_sequence(3)

    @pytest.mark.parametrize("one", [0, 1, "last"])
    def test_control_cycle_that_closes_late(self, one):
        # 1 + x^r, r = 2**16 + 15, seeded with one one: two ones in its first
        # 2n + 2r + 2 bits and its cycle still open.  The prefix grows by at
        # most doubling, so its cycle of r bits closes at 3r bits; a cycle
        # closed past the first prefix is repeated only up to the n-th kept
        # one, as the prefix would have been stepped.  Seeded 0...01, the
        # 64th one is bit 64r - 1, so 64 kept bits need 64r data bits, over
        # the bound 4n + 2**22 = 4,194,560; seeded 10...0 they need 63r + 1
        # bits, inside it, though their 64 whole cycles pass it.
        r = (1 << 16) + 15
        one = r - 1 if one == "last" else one
        data = cf.make_lfsr("11001", "1000")
        control = Lfsr(Gf2Poly.parse(f"1+x^{r}"), [0] * one + [1] + [0] * (r - one - 1))
        gen = ShrinkingGenerator(control, data)
        n = 63 if one == r - 1 else 64
        m = (n - 1) * r + one + 1
        assert gen.shrunken_sequence(n) == bytes(compress(data.sequence(m), control.sequence(m)))
        msg = f"{n + 1} kept bits would clock {m + r} register bits, over {4 * n + 4 + (1 << 22)}$"
        with pytest.raises(ValueError, match=msg):
            gen.shrunken_sequence(n + 1)

    def test_cycles_closed_in_a_grown_prefix_match_literal_filtering(self):
        # x^k + x^r repeats, from bit k on, a cycle of r - k bits or of a
        # divisor.  Below n = (r - k)/2 - 1 a full-length cycle is longer
        # than 2n + 2 bits, so only a grown prefix closes it when a sparse
        # seed leaves its first prefix short of ones, and it is cut at the
        # n-th kept bit: by the slices when w <= q, by the translate when
        # w > q.  Every route must give the literally filtered bits.
        rng = random.Random(0xC075)
        for _ in range(300):
            r = rng.randrange(8, 200)
            k = rng.choice([0, 0, rng.randrange(r // 2)])
            seed = [int(rng.random() < rng.choice((0.02, 0.05, 0.1, 0.2))) for _ in range(r)]
            seed[rng.randrange(k, r)] = 1
            l2 = rng.choice([d for d in (3, 4, 5, 7) if gcd(d, r) == 1])
            data = Lfsr(cf.first_primitive(l2), cf.random_nonzero_seed(rng, l2))
            gen = ShrinkingGenerator(Lfsr(Gf2Poly((1 << r) | (1 << k)), seed), data)
            n = rng.randrange(1, max(2, (r - k) // 2))
            m = r + (n + 1) * (r - k)
            control, stream = cf.literal_lfsr(gen.r1, m), cf.literal_lfsr(data, m)
            assert gen.shrunken_sequence(n) == bytes(compress(stream, control))[:n]

    def test_whole_cycles_past_the_bound_are_not_refused(self):
        # 1 + x^2900 seeded 10...0 keeps data bits 0, 2900, 5800, ...: its
        # cycle closes in the first prefix of 2n + 2r + 2 bits, and the
        # 1449th kept bit is data bit 1448 * 2900, inside the bound
        # 4n + 2**22 = 4,200,100 though 1449 whole cycles pass it.  The
        # 1450th lies past the bound 4,200,104, and the refusal names the
        # data bits up to it.
        control, data = cf.make_lfsr("1+x^2900", "1" + "0" * 2899), cf.make_lfsr("1101", "100")
        gen, m = ShrinkingGenerator(control, data), 1448 * 2900 + 1
        literal = bytes(compress(data.sequence(m), control.sequence(m)))
        assert len(literal) == 1449 and gen.shrunken_sequence(1449) == literal
        msg = "1450 kept bits would clock 4202101 register bits, over 4200104$"
        with pytest.raises(ValueError, match=msg):
            gen.shrunken_sequence(1450)

    def test_control_longer_than_its_first_prefix_bound(self):
        # 1 + x^3000001 seeded all ones is all ones: 5 kept bits are the first
        # 5 data bits, though its first prefix, 2n + 2r + 2 = 6,000,014 bits,
        # is cut to the bound 4n + 2**22 = 4,194,324.
        r = 3_000_001
        data = cf.make_lfsr("11001", "1000")
        gen = ShrinkingGenerator(Lfsr(Gf2Poly.parse(f"1+x^{r}"), [1] * r), data)
        assert gen.shrunken_sequence(5) == bytes(compress(data.sequence(5), [1] * 5))

    def test_control_seed_is_its_first_prefix(self, monkeypatch):
        # A control whose seed holds the n ones is not stepped: only the data
        # register is, for the seed's r1 bits.  One kept bit more steps the
        # control too.  1 + x + x^2000001 seeded all ones keeps the first 5
        # data bits; random registers against the literal filter.
        stepped = []
        steps = Lfsr._steps

        def spy(reg, n, state):
            stepped.append(reg)
            return steps(reg, n, state)

        monkeypatch.setattr(Lfsr, "_steps", spy)
        r = 2_000_001
        data = cf.make_lfsr("11001", "1000")
        control = Lfsr(Gf2Poly.parse(f"1+x+x^{r}"), [1] * r)
        assert ShrinkingGenerator(control, data).shrunken_sequence(5) == data.sequence(5)
        assert not any(reg is control for reg in stepped)
        rng = random.Random("seed-prefix")
        for _ in range(60):
            l1, l2 = rng.choice([(l1, l2) for l1 in range(1, 9) for l2 in range(1, 8)
                                 if gcd(l1, l2) == 1])
            control = Lfsr(Gf2Poly(rng.randrange(1 << l1, 2 << l1)),
                           cf.random_nonzero_seed(rng, l1))
            data = Lfsr(Gf2Poly(rng.randrange(1 << l2, 2 << l2)), cf.random_nonzero_seed(rng, l2))
            gen, ones = ShrinkingGenerator(control, data), sum(control.state)
            for n in range(ones + 2):
                expected = cf.brute_shrunken(gen, n)
                stepped.clear()
                if len(expected) < n:
                    with pytest.raises(ValueError, match="control register ran out of ones"):
                        gen.shrunken_sequence(n)
                else:
                    assert gen.shrunken_sequence(n) == bytes(expected)
                    assert any(reg is data for reg in stepped)
                assert any(reg is control for reg in stepped) == (n > ones)

    @pytest.mark.parametrize("kind", ["first", "grown", "open"])
    def test_refused_exactly_when_the_nth_kept_bit_lies_past_the_bound(self, kind):
        # Each case puts the n-th kept bit at register bit 4n + 2**22 - 1,
        # the last inside the bound, or at 4n + 2**22, the first past it
        # (`bound_edge_control`).  Inside, the keystream is the literally
        # filtered registers; past, the refusal names the bound + 1.
        rng = random.Random(f"edge-{kind}")
        shapes = [0, 2] if kind == "open" else [None] * 6
        for i, past in [(i, past) for i in shapes for past in (0, 1)]:
            l2 = rng.choice((3, 4, 5, 7))
            control, n, stream = bound_edge_control(rng, kind, i, past, l2)
            data = Lfsr(cf.first_primitive(l2), cf.random_nonzero_seed(rng, l2))
            gen, bound = ShrinkingGenerator(control, data), 4 * n + MAX_WINDOW_BITS
            if past:
                msg = f"{n} kept bits would clock {bound + 1} register bits, over {bound}$"
                with pytest.raises(ValueError, match=msg):
                    gen.shrunken_sequence(n)
            else:
                literal = bytes(compress(data.sequence(bound), stream))
                assert len(literal) == n and gen.shrunken_sequence(n) == literal

    def test_cycle_resumes_from_an_open_prefix(self):
        # _cycle(limit, prefix) steps on from an open prefix's last r bits
        # and searches only the bits after it: grown in random steps, as the
        # open-prefix loop grows it, it gives what one walk from the seed
        # gives.  Polynomials with a factor x**k, sparse 1 + x**r and random
        # ones; seeds with few or no ones.
        rng = random.Random(0xC1C1E)
        for _ in range(1500):
            r = rng.randrange(1, 13)
            poly = rng.choice([
                rng.randrange(1 << r, 1 << (r + 1)) >> (k := rng.randrange(r + 1)) << k,
                (1 << r) | 1,
                rng.randrange(1 << r, 1 << (r + 1)),
            ])
            seed = [int(rng.random() < rng.choice((0, 0.125, 0.5))) for _ in range(r)]
            reg = Lfsr(Gf2Poly(poly), seed)
            edge = (1 << r) + 2 * r
            limit = rng.randrange(r, edge + r + 2)
            prefix, t = reg._cycle(rng.randrange(r, limit + 1))
            while not t and len(prefix) < limit:
                grown = rng.randrange(len(prefix) + 1, limit + 1)
                prefix, t = reg._cycle(grown, prefix)
                assert (prefix, t) == reg._cycle(grown)
            assert (prefix, t) == reg._cycle(limit)

    def test_cycle_search_ends_at_the_first_recurrence(self):
        # Degree-41 controls whose cycles close within 3r bits: the search
        # must stop there, not step toward its 2**41 + 82 bit bound.
        # A child interpreter runs them, so a search that does not stop
        # fails on its timeout instead of hanging the suite.
        one_per_cycle, ran_out = "1" + "0" * 40 + "1", "0" * 41 + "1"
        p2, s2, seed = "11001", "1000", "1" + "0" * 40
        code = (
            "from shrinkca import Gf2Poly, Lfsr, ShrinkingGenerator, format_bits, parse_bits\n"
            "def make_lfsr(poly, seed):\n"
            "    return Lfsr(Gf2Poly.parse(poly), parse_bits(seed))\n"
            f"data = make_lfsr({p2!r}, {s2!r})\n"
            f"gen = ShrinkingGenerator(make_lfsr({one_per_cycle!r}, {seed!r}), data)\n"
            "print(format_bits(gen.shrunken_sequence(1000)))\n"
            f"gen = ShrinkingGenerator(make_lfsr({ran_out!r}, {seed!r}), data)\n"
            "try:\n"
            "    gen.shrunken_sequence(10)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        out = cf.bare_python(code, timeout=10).splitlines()
        control = cf.literal_lfsr(cf.make_lfsr(one_per_cycle, seed), 41 * 1000)
        data = cf.literal_lfsr(cf.make_lfsr(p2, s2), 41 * 1000)
        kept = "".join(str(d) for c, d in zip(control, data) if c)
        assert out == [kept, "control register ran out of ones"]

    def test_keystream_random_registers(self):
        # Random registers, and controls with few or no ones: r = 1, (1+x)^5,
        # a factor x, irreducible but not primitive, sparse 1+x^6 and
        # 1+x^10, and a zero seed.  Only a control that runs out of ones
        # may refuse.
        def agrees(gen, n):
            expected = cf.brute_shrunken(gen, n)
            if len(expected) < n:
                with pytest.raises(ValueError, match="ones"):
                    gen.shrunken_sequence(n)
                return False
            assert gen.shrunken_sequence(n) == bytes(expected)
            return True

        rng = random.Random(0x5A1D)
        for p1, s1, p2, s2 in (
            ("11", "1", "1101", "110"),
            ("110011", "10100", "1000101", "000011"),
            ("011", "10", "1101", "110"),
            ("0101", "111", "110001", "01101"),
            ("11111", "1000", "1101", "110"),
            ("1000001", "000001", "110001", "01101"),
            ("10000000001", "1000000000", "1101", "110"),
            ("11", "0", "111", "01"),
        ):
            gen = ShrinkingGenerator(cf.make_lfsr(p1, s1), cf.make_lfsr(p2, s2))
            for n in (0, 1, 2, rng.randrange(3, 40), rng.randrange(40, 300)):
                agrees(gen, n)
        checked = 0
        while checked < 150:
            l1, l2 = rng.randrange(1, 7), rng.randrange(1, 9)
            if gcd(l1, l2) != 1:
                continue
            gen = ShrinkingGenerator(
                Lfsr(Gf2Poly(rng.randrange(1 << l1, 1 << (l1 + 1))),
                     cf.random_nonzero_seed(rng, l1)),
                Lfsr(Gf2Poly(rng.randrange(1 << l2, 1 << (l2 + 1))),
                     [rng.randrange(2) for _ in range(l2)]),
            )
            checked += agrees(gen, rng.randrange(0, 200))

    def test_control_running_out_of_ones_is_value_error(self):
        # x + x^2 has no constant term: the stream 1, 0, 0, ... has one 1.
        gen = ShrinkingGenerator(
            cf.make_lfsr("011", "10"), cf.make_lfsr("1011", "100")
        )
        assert gen.shrunken_sequence(1) == bytes([1])
        with pytest.raises(ValueError, match="ran out of ones"):
            gen.shrunken_sequence(5)

    def test_registers_of_a_polynomial_in_x_to_the_g(self):
        # P(x) = Q(x**g) steps on g-bit blocks: g = 2..7, random Q with and
        # without a factor y, seeds with few or no ones, counts on and around
        # r, 2r, the end of the first cycle and the 2**r + 2r step bound,
        # from the seed and resumed from an open prefix.
        rng = random.Random(0x9B10C)
        for _ in range(200):
            reg = x_to_the_g_register(rng, 12)
            r = reg.length
            edge = (1 << r) + 2 * r
            literal = bytes(cf.literal_lfsr(reg, edge + 1))
            bits, t = reg._cycle(edge)
            assert t and bits == literal[: r + t]
            ends = {r, 2 * r, r + t, edge}
            for n in sorted({max(end + d, 0) for end in ends for d in (-1, 0, 1)}):
                assert reg.sequence(n) == literal[:n]
            prefix, t = reg._cycle(rng.randrange(r, r + r + t))
            assert not t and prefix == literal[: len(prefix)]
            grown = rng.randrange(len(prefix) + 1, edge + 1)
            assert reg._cycle(grown, prefix) == reg._cycle(grown)

    def test_keystream_with_a_control_in_x_to_the_g(self):
        # Controls Q(x**g), g = 2..7, over random data registers, some with a
        # zero seed, against the literally filtered registers; only a
        # control that runs out of ones may refuse.
        rng = random.Random(0x9C7B)
        checked = 0
        while checked < 80:
            control = x_to_the_g_register(rng, 8)
            l2 = rng.randrange(1, 9)
            if gcd(control.length, l2) != 1 or not any(control.state):
                continue
            seed = [rng.randrange(2) for _ in range(l2)] if rng.random() < 0.8 else [0] * l2
            data = Lfsr(Gf2Poly(rng.randrange(1 << l2, 2 << l2)), seed)
            gen = ShrinkingGenerator(control, data)
            n = rng.choice((1, control.length, 2 * control.length, rng.randrange(0, 200)))
            expected = cf.brute_shrunken(gen, n)
            if len(expected) < n:
                with pytest.raises(ValueError, match="ones"):
                    gen.shrunken_sequence(n)
            else:
                assert gen.shrunken_sequence(n) == bytes(expected)
                checked += 1

    def test_dense_taps_refused_before_stepping(self):
        # A request whose first doubling, or as much of it as the request
        # steps, XORs over MAX_WINDOW_BITS blocks (taps per new block) is
        # refused before any block is stepped.  Every tap set: degree 2,048
        # is at the bound, and degree 2,049 is accepted up to 2,047 new
        # blocks, r + 2,047 bits.  Q(x**2) with Q's every tap set at degree
        # 2,048 has 2,048 taps over 2,048 blocks of 2 bits, and is at the
        # bound.  With Q(y) = 1 + ... + y**d, (1 + x**g) Q(x**g) =
        # 1 + x**(r + g), so the stream from 10...0 is the seed, a 1 and
        # g - 1 zeros, repeated.
        at, past = Gf2Poly((1 << 2049) - 1), Gf2Poly((1 << 2050) - 1)
        spread = Gf2Poly(sum(1 << 2 * i for i in range(2049)))
        for poly, g in (at, 1), (spread, 2):
            reg = Lfsr(poly, [1] + [0] * (poly.degree - 1))
            period = bytes(reg.state) + bytes([1] + [0] * (g - 1))
            assert reg.sequence(3 * len(period) + 1) == period * 3 + b"\1"
        reg = Lfsr(past, [1] + [0] * 2048)
        period = bytes(reg.state) + b"\1"
        for n in 2049, 2050, 2049 + 2047:
            assert reg.sequence(n) == (period * 2)[:n]
        msg = f"^2049 taps would XOR {2049 * 2048} blocks in one doubling, over {MAX_WINDOW_BITS}$"
        with pytest.raises(ValueError, match=msg):
            reg.sequence(2049 + 2048)
        gen = ShrinkingGenerator(cf.make_lfsr("11", "1"), reg)
        assert gen.shrunken_sequence(2050) == period
        with pytest.raises(ValueError, match=msg):
            gen.shrunken_sequence(2049 + 2048)

    def test_sparse_control_past_half_the_bound_is_not_dense(self):
        # 1 + x^3 + x^3000001 has 2 taps over 3,000,001 one-bit blocks, but 5
        # kept bits step the control only to the clocking bound, 1,194,323
        # new blocks: 2,388,646 XORs, under MAX_WINDOW_BITS.  A seed of 4
        # ones steps it so, and its 5th kept bit is bit r + 1; a seed of
        # ones keeps the first 5 data bits without stepping the control.
        r = 3_000_001
        data = cf.make_lfsr("11001", "1000")
        poly = Gf2Poly.parse(f"1+x^3+x^{r}")
        control = Lfsr(poly, [1] * 4 + [0] * (r - 4))
        literal = bytes(compress(data.sequence(r + 2), control.sequence(r + 2)))
        assert ShrinkingGenerator(control, data).shrunken_sequence(5) == literal
        gen = ShrinkingGenerator(Lfsr(poly, [1] * r), data)
        assert gen.shrunken_sequence(5) == data.sequence(5)


def x_to_the_g_register(rng, top):
    """A register of degree at most `top` whose polynomial is Q(x**g) for g
    in 2..7 and a random Q, with or without a factor y, seeded with few or
    no ones."""
    g = rng.randrange(2, 8)
    d = rng.randrange(1, top // g + 1)
    q = rng.randrange(1 << d, 2 << d)
    q = q | 1 if rng.random() < 0.6 else q & ~1
    poly = sum(1 << g * i for i in range(d + 1) if q >> i & 1)
    density = rng.choice((0, 0.125, 0.5))
    return Lfsr(Gf2Poly(poly), [int(rng.random() < density) for _ in range(g * d)])


def bound_edge_control(rng, kind, i, past, l2):
    """A control x^k + x^r, r coprime to l2, a count n whose n-th kept bit
    is register bit 4n + 2**22 - 1 + past, and the control's literal stream
    up to that bound.

    The control repeats bits k..r-1 of its seed, a cycle of d = r - k bits
    with w ones at p_0 < ... < p_(w-1): after the a ones of bits 0..k-1,
    kept bit a + row*w + j is register bit k + row*d + p_j.  Its cycle
    closes in the first prefix of 2n + 2r + 2 bits when d <= 2n + 2
    ("first"), in a grown prefix once 2r + d bits are stepped ("grown"), or
    not within the bound when 3r passes it ("open": w = 1, k = 0 and the one
    at bit i*r + p_0; i = 0 puts it in a seed longer than the bound)."""
    while True:
        if kind == "open":
            n, k = i + 1, 0
            edge = 4 * n + MAX_WINDOW_BITS - 1 + past  # the n-th kept bit
            lo, hi = (edge + 1, edge + 9) if i == 0 else ((edge + 2) // 3 + 1, edge // 2)
            d = rng.randrange(lo, hi + 1)
            head, ones = b"", [edge - i * d]
        else:
            w = rng.choice((1, 1, 2, 3, 5))
            k = rng.choice((0, 0, rng.randrange(1, 50)))
            cap = isqrt(w << 23)  # for d near it, n is near d / 2
            lo, hi = (40 * w, cap) if kind == "first" else (cap * 6 // 5, 60000)
            d = rng.randrange(lo, hi)
            head = bytes(int(rng.random() < 0.1) for _ in range(k))
            a = head.count(1)
            n0 = a + 1 + w * (MAX_WINDOW_BITS // (d - 4 * w))
            for n in range(max(a + 1, n0 - 4 * w), n0 + 4 * w):
                row, j = divmod(n - a - 1, w)
                p = 4 * n + MAX_WINDOW_BITS - 1 + past - k - row * d
                if j <= p <= d - w + j and (kind == "first") == (d <= 2 * n + 2):
                    ones = rng.sample(range(p), j) + [p] + rng.sample(range(p + 1, d), w - 1 - j)
                    break
            else:
                continue
        if gcd(k + d, l2) == 1:
            break
    r, bound = k + d, 4 * n + MAX_WINDOW_BITS
    seed = bytearray(head) + bytearray(d)
    for p in ones:
        seed[k + p] = 1
    control = Lfsr(Gf2Poly((1 << r) | (1 << k)), seed)
    if kind == "open":
        assert 3 * r > bound + 1
    else:
        assert bool(control._cycle(2 * n + 2 * r + 2)[1]) == (kind == "first")
        assert 2 * r + d < bound
    return control, n, (head + bytes(seed[k:]) * -(-(bound - k) // d))[:bound]
