import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cf
import shrinkca
from shrinkca import Gf2Poly, RuleVector
from shrinkca.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, address_space=None, timeout=120):
    """`python -m shrinkca ARGV` in a fresh interpreter.  With
    `address_space` (bytes), the child's RLIMIT_AS is capped, so a missing
    size check fails with MemoryError instead of exhausting the host."""
    env = dict(os.environ)
    src = str(Path(shrinkca.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "shrinkca", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=cap if address_space else None,
    )


class TestStreams:
    def test_lfsr_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "lfsr", "--poly", cf.R1_POLY, "--seed", cf.R1_SEED, "--count", "7"
        )
        assert code == 0
        assert out.strip() == cf.R1_STREAM

    def test_shrink_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shrink",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", cf.R2A_POLY, "--s2", cf.R2A_SEED,
            "--count", "13",
        )
        assert code == 0
        assert out.strip() == cf.KEYSTREAM_A_13

    def test_shrink_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "shrink",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", cf.R2A_POLY, "--s2", cf.R2A_SEED,
            "--count", "13", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"bits": cf.KEYSTREAM_A_13}

    def test_short_shrink_with_a_long_control_steps_a_prefix(self):
        # A degree-41 control cycles every 2**41 bits at most: ten output bits
        # come from a short prefix of it, not from 2**42 stepped bits.
        p1, s1, p2, s2 = "1001" + "0" * 37 + "1", "1" + "0" * 40, "11001", "1000"
        proc = run_child(
            "shrink", "--p1", p1, "--s1", s1, "--p2", p2, "--s2", s2, "--count", "10",
            address_space=512 << 20,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        control = cf.literal_lfsr(cf.make_lfsr(p1, s1), 400)
        data = cf.literal_lfsr(cf.make_lfsr(p2, s2), 400)
        kept = "".join(str(d) for c, d in zip(control, data) if c)
        assert len(kept) >= 10 and proc.stdout == kept[:10] + "\n"

    def test_shrink_refuses_a_sparse_control_before_clocking(self):
        # 1 + x^1001 seeded 10...0 keeps one data bit per 1001: the 400,000th
        # kept bit is data bit 400,398,999, past 4n + 2**22.  Stepped, the
        # registers run out of memory under this cap; refused, the data
        # register is not stepped.
        p1, s1 = "1" + "0" * 1000 + "1", "1" + "0" * 1000
        proc = run_child(
            "shrink", "--p1", p1, "--s1", s1, "--p2", "11001", "--s2", "1000",
            "--count", "400000", address_space=512 << 20, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "shrinkca: error: 400000 kept bits would clock 400399000 register bits,"
            " over 5794304\n"
        )

    @pytest.mark.parametrize(
        "p1,s1,p2,s2",
        [
            ("1+x^3+x^41", "1" + "0" * 40, "1+x^5+x^23", "1" + "0" * 22),
            ("1+x^5", "10000", "11001", "1000"),
        ],
        ids=["open-control-prefix", "clocking-bound"],
    )
    def test_shrink_at_the_worst_accepted_inputs(self, p1, s1, p2, s2):
        # README's worst accepted `shrink` inputs at the most bits it prints:
        # a control whose first 2n + 84 bits hold too few ones, and one that
        # keeps one data bit in five, clocking 5n - 4 of them.  A child runs
        # each, so a slower route times out instead of stalling the suite.
        n = shrinkca.MAX_WINDOW_BITS
        start = time.perf_counter()
        proc = run_child(
            "shrink", "--p1", p1, "--s1", s1, "--p2", p2, "--s2", s2, "--count", str(n),
            timeout=60,
        )
        assert time.perf_counter() - start < 10.0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout) == n + 1 and proc.stdout.endswith("\n")
        control = cf.literal_lfsr(cf.make_lfsr(p1, s1), 6000)
        data = cf.literal_lfsr(cf.make_lfsr(p2, s2), 6000)
        kept = "".join(str(d) for c, d in zip(control, data) if c)
        assert len(kept) >= 1000 and proc.stdout[:1000] == kept[:1000]

    def test_shrink_with_a_control_cycle_that_closes_late(self):
        # README's row for 1 + x^r seeded 0...01, r = 65551: its ones are bits
        # kr - 1, two in the first prefix, where the cycle is still open.  The
        # prefix doubles, the cycle closes at 3r bits, and 63 kept bits clock
        # 63r data bits; 64 would clock 64r, over 4n + 2**22.  r = 1 mod 15,
        # the data period, so the keystream is the data stream.
        r = 65551
        argv = ["shrink", "--p1", f"1+x^{r}", "--s1", "0" * (r - 1) + "1",
                "--p2", "11001", "--s2", "1000", "--count"]
        start = time.perf_counter()
        proc = run_child(*argv, "63", timeout=60)
        assert time.perf_counter() - start < 10.0
        assert (proc.returncode, proc.stderr) == (0, "")
        data = cf.literal_lfsr(cf.make_lfsr("11001", "1000"), 63)
        assert proc.stdout == "".join(map(str, data)) + "\n"
        proc = run_child(*argv, "64", timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"shrinkca: error: 64 kept bits would clock {64 * r} register bits,"
            f" over {4 * 64 + shrinkca.MAX_WINDOW_BITS}\n"
        )

    def test_lfsr_at_the_highest_degree_an_argument_carries(self):
        # README's `lfsr` row: Linux caps one argument at 128 KiB, so a seed
        # has at most 131,071 bits; 1 + x^3 + x^r at that degree prints the
        # most bits lfsr prints.  A child runs it, so a route slower than
        # the block leap times out instead of stalling the suite.
        r, n = 131071, shrinkca.MAX_WINDOW_BITS
        start = time.perf_counter()
        proc = run_child(
            "lfsr", "--poly", f"1+x^3+x^{r}", "--seed", "0" * (r - 1) + "1",
            "--count", str(n), timeout=60,
        )
        assert time.perf_counter() - start < 10.0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout) == n + 1 and proc.stdout.endswith("\n")
        literal = cf.literal_lfsr(cf.make_lfsr(f"1+x^3+x^{r}", "0" * (r - 1) + "1"), 3 * r)
        assert proc.stdout[: 3 * r] == "".join(map(str, literal))

    def test_lfsr_with_every_tap_set_at_the_dense_bound(self):
        # README's dense `lfsr` row: each doubling XORs taps * r blocks, so
        # every tap set at degree 2,048 is 2**22, the most accepted, here at
        # the most bits lfsr prints.  The stream from 10...0 is the seed and
        # a 1, repeated, since (1 + x)(1 + x + ... + x**r) = 1 + x**(r + 1).
        r, n = 2048, shrinkca.MAX_WINDOW_BITS
        start = time.perf_counter()
        proc = run_child(
            "lfsr", "--poly", "1" * (r + 1), "--seed", "1" + "0" * (r - 1),
            "--count", str(n), timeout=60,
        )
        assert time.perf_counter() - start < 10.0
        assert (proc.returncode, proc.stderr) == (0, "")
        period = "1" + "0" * (r - 1) + "1"
        assert proc.stdout == (period * (n // len(period) + 1))[:n] + "\n"

    def test_lfsr_refuses_every_tap_set_past_the_dense_bound(self):
        # Degree 2,049 with every tap set XORs 2,049**2 blocks in its first
        # doubling, over 2**22: refused before any block is stepped.
        r, n = 2049, shrinkca.MAX_WINDOW_BITS
        start = time.perf_counter()
        proc = run_child(
            "lfsr", "--poly", "1" * (r + 1), "--seed", "1" + "0" * (r - 1),
            "--count", str(n), timeout=60,
        )
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"shrinkca: error: {r} taps would XOR {r * r} blocks in one doubling, over {n}\n"
        )


class TestCa:
    def test_run_golden_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ca", "run",
            "--rules", cf.ORBIT_RULES,
            "--state", cf.ORBIT_ROWS[0],
            "--steps", "5",
        )
        assert code == 0
        assert out.splitlines() == cf.ORBIT_ROWS

    def test_run_json_is_json_dumps_of_the_rows(self, capsys):
        argv = ["ca", "run", "--rules", cf.ORBIT_RULES, "--state", cf.ORBIT_ROWS[0]]
        for steps in range(len(cf.ORBIT_ROWS)):
            rows = cf.ORBIT_ROWS[: steps + 1]
            code, out, _ = run_cli(capsys, *argv, "--steps", str(steps), "--format", "json")
            assert (code, out) == (0, json.dumps({"states": rows}, sort_keys=True) + "\n")
            code, out, _ = run_cli(capsys, *argv, "--steps", str(steps))
            assert (code, out) == (0, "".join(row + "\n" for row in rows))

    @pytest.mark.parametrize(
        "fmt,digest", [("text", "81a6992e656a4217"), ("json", "08affa029a90e114")]
    )
    def test_run_at_the_bound_streams_in_64_mib(self, fmt, digest):
        # 2^21 rows of 2 cells: the whole orbit as a list would not fit.
        proc = run_child(
            "ca", "run", "--rules", "01", "--state", "10", "--steps", "2097151",
            "--format", fmt, address_space=64 << 20,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == digest

    def test_run_negative_steps_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "ca", "run", "--rules", "01", "--state", "10", "--steps", "-1"
        )
        assert (code, out) == (2, "")
        assert err == "shrinkca: error: step count must be nonnegative\n"

    def test_run_state_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "ca", "run", "--rules", "011", "--state", "0110", "--steps", "1"
        )
        assert code == 2
        assert "error" in err

    def test_charpoly(self, capsys):
        code, out, _ = run_cli(capsys, "ca", "charpoly", "--rules", "01111")
        assert code == 0
        assert out.strip() == cf.BASE5


class TestLinearize:
    def test_golden_pair(self, capsys):
        code, out, _ = run_cli(capsys, "linearize", "--l1", "3", "--p2", cf.R2B_POLY)
        assert code == 0
        assert out.splitlines() == list(cf.PAIR20)

    def test_json_fields_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "linearize", "--l1", "3", "--p2", cf.R2B_POLY, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 4 and payload["L"] == 20 and payload["N"] == 7
        assert RuleVector.parse(payload["rules_a"])
        assert Gf2Poly.parse(payload["base_poly"]) == Gf2Poly.parse(cf.BASE5)

    def test_term_form_polynomial_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "linearize", "--l1", "3", "--p2", "1+x+x^2+x^4+x^5"
        )
        assert code == 0
        assert out.splitlines() == list(cf.PAIR20)


class TestBm:
    def test_inline_sequence(self, capsys):
        stream = cf.R2A_STREAM * 2
        code, out, _ = run_cli(capsys, "bm", "--seq", stream)
        assert code == 0
        assert out.strip() == f"lc=4 charpoly={cf.R2A_POLY}"

    def test_sequence_file_with_whitespace(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("10001 00110\n10111 10001\n00110 10111\n")
        code, out, _ = run_cli(capsys, "bm", "--seq-file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"linear_complexity": 4, "connection_poly": cf.R2A_POLY}

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "bm")
        assert code == 2 and "exactly one" in err
        code, _, err = run_cli(capsys, "bm", "--seq", "101", "--seq-file", "x")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "bm", "--seq-file", "/nonexistent/stream")
        assert code == 2 and "error" in err


class TestAttack:
    def test_verdict_true_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "attack",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", cf.R2B_POLY, "--s2", cf.R2B_SEED,
        )
        assert code == 0
        assert "verdict       LINEAR" in out
        assert cf.PAIR20[0] in out or cf.PAIR20[1] in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "attack",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", cf.R2A_POLY, "--s2", cf.R2A_SEED,
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["verified_period"] == 60
        # Printed canonical values parse back losslessly.
        assert Gf2Poly.parse(payload["generator"]["p2"]).to_bitstring() == cf.R2A_POLY
        assert RuleVector.parse(payload["matched_rules"])

    def test_degree_one_data_register(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--p1", "111", "--s1", "10", "--p2", "11", "--s2", "1"
        )
        assert code == 0
        assert out.splitlines() == [
            "generator     l1=2 p1=111 seed1=10 | l2=1 p2=11 seed2=1",
            "automata      00 / 00 (L=2, base=11, p=2, N=3)",
            "complexity    LC=1",
            "factorization 11^1 confirmed",
            "replay        cell 0 of 00, state 11",
            "verified      period 2 over a 4-bit window",
            "verdict       LINEAR",
        ]

    def test_attack_at_the_widest_automaton(self):
        # README's true-verdict `attack` row: (L1, L2) = (15, 4) builds
        # 4 * 2**14 = MAX_CELLS cells, the widest automaton accepted, and
        # Berlekamp-Massey and the fit's continuants are quadratic in it.  A
        # child runs it, so a slower route times out instead of stalling the
        # suite.
        start = time.perf_counter()
        proc = run_child(
            "attack", "--p1", "1+x+x^15", "--s1", "1" + "0" * 14, "--p2", "1+x+x^4",
            "--s2", "1000", "--format", "json", timeout=60,
        )
        assert time.perf_counter() - start < 10.0
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert report["linearization"]["L"] == shrinkca.MAX_CELLS == report["linear_complexity"]
        assert report["verdict"] is True and report["window_length"] == (1 << 19) - (1 << 15)

    def test_invalid_generator_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "attack",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", "11111", "--s2", "1000",
        )
        assert code == 2 and "primitive" in err


class TestUsage:
    def test_control_out_of_ones_exits_two_without_traceback(self):
        proc = run_child(
            "shrink", "--p1", "011", "--s1", "10", "--p2", "1011", "--s2", "100",
            "--count", "5",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("shrinkca: error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv,message",
        [
            # 2^39 cells: a missing check would double the pair 39 times.
            (("linearize", "--l1", "40", "--p2", "111"),
             "control length 40 gives over 65536 cells"),
            (("linearize", "--l1", "17", "--p2", "111"),
             "the automata would have 131072 cells, over 65536"),
            # (5, 18): 8 388 576 window bits, twice the limit, over 288 cells.
            (("attack", "--p1", "101001", "--s1", "10000",
              "--p2", cf.first_primitive(18).to_bitstring(), "--s2", "1" + "0" * 17),
             "the window would be 8388576 bits, over 4194304"),
            (("lfsr", "--poly", "1011", "--seed", "100", "--count", "10000000000"),
             "the output would be 10000000000 bits, over 4194304"),
            (("shrink", "--p1", "1011", "--s1", "100", "--p2", "11001", "--s2", "1000",
              "--count", "10000000000"),
             "the output would be 10000000000 bits, over 4194304"),
            (("ca", "run", "--rules", "01", "--state", "10", "--steps", "1000000000"),
             "the output would be 2000000002 bits, over 4194304"),
            # 1 << 10**10 would take 1.25 GB before any subcommand ran.
            (("linearize", "--l1", "3", "--p2", "1+x^10000000000"),
             "term exponent 10000000000 is over 4194304"),
            (("attack", "--p1", "1011", "--s1", "100", "--p2", "1+x^10000000000",
              "--s2", "1000"),
             "term exponent 10000000000 is over 4194304"),
            (("lfsr", "--poly", "1+x^10000000000", "--seed", "1", "--count", "5"),
             "term exponent 10000000000 is over 4194304"),
        ],
    )
    def test_size_budgets_exit_two_before_allocating(self, argv, message):
        proc = run_child(*argv, address_space=1 << 30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"shrinkca: error: {message}\n"

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["lfsr", "--poly", cf.R1_POLY, "--seed", cf.R1_SEED, "--count"], 19),
            (["shrink", "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
              "--p2", cf.R2A_POLY, "--s2", cf.R2A_SEED, "--count"], 19),
            # 19 steps print 20 rows of 2 cells.
            (["ca", "run", "--rules", "01", "--state", "10", "--steps"], 40),
        ],
        ids=["lfsr", "shrink", "ca-run"],
    )
    def test_output_budget_is_exact(self, capsys, monkeypatch, argv, size):
        import shrinkca.cli

        monkeypatch.setattr(shrinkca.cli, "MAX_WINDOW_BITS", size)
        code, out, err = run_cli(capsys, *argv, "19")
        assert (code, err) == (0, "") and out
        monkeypatch.setattr(shrinkca.cli, "MAX_WINDOW_BITS", size - 1)
        code, out, err = run_cli(capsys, *argv, "19")
        assert (code, out) == (2, "")
        assert err == f"shrinkca: error: the output would be {size} bits, over {size - 1}\n"

    @pytest.mark.parametrize("tail", [0, 1 << 31], ids=["digits", "sparse-2GiB-tail"])
    def test_bm_stream_budget_exits_two_before_allocating(self, tmp_path, tail):
        # One digit over the bound; a sparse tail of NULs past it is never
        # read, so a reader that held the whole file would exhaust the cap.
        path = tmp_path / "stream.txt"
        path.write_text("1" * (shrinkca.MAX_WINDOW_BITS + 1))
        if tail:
            os.truncate(path, tail)
        proc = run_child("bm", "--seq-file", str(path), address_space=1 << 30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "shrinkca: error: the stream is over 4194304 bits\n"

    @pytest.mark.parametrize("flag", ["--seq", "--seq-file"])
    def test_bm_input_budget_is_exact(self, capsys, monkeypatch, tmp_path, flag):
        import shrinkca.cli

        stream = cf.R2A_STREAM * 2
        path = tmp_path / "stream.txt"
        path.write_text(" ".join(stream) + "\n")  # whitespace is not counted
        source = stream if flag == "--seq" else str(path)
        monkeypatch.setattr(shrinkca.cli, "MAX_WINDOW_BITS", len(stream))
        assert run_cli(capsys, "bm", flag, source) == (0, f"lc=4 charpoly={cf.R2A_POLY}\n", "")
        monkeypatch.setattr(shrinkca.cli, "MAX_WINDOW_BITS", len(stream) - 1)
        code, out, err = run_cli(capsys, "bm", flag, source)
        assert (code, out) == (2, "")
        assert err == f"shrinkca: error: the stream is over {len(stream) - 1} bits\n"

    def test_internal_error_exits_three_without_traceback(self, capsys, monkeypatch):
        # A failed invariant check is neither a false verdict (1) nor a
        # usage error (2).
        import shrinkca.cli

        def broken(gen):
            raise RuntimeError("first dependency is not a minimal polynomial")

        monkeypatch.setattr(shrinkca.cli, "verify_linearization", broken)
        code, out, err = run_cli(
            capsys,
            "attack",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", cf.R2A_POLY, "--s2", cf.R2A_SEED,
        )
        assert (code, out) == (3, "")
        assert err == "shrinkca: internal error: first dependency is not a minimal polynomial\n"

    @pytest.mark.parametrize(
        "mask", [0b100001, 0b1011], ids=["reducible", "wrong-degree"]
    )
    def test_minimal_polynomial_invariant_exits_three(self, capsys, monkeypatch, mask):
        # The base polynomial of (3, R2B) has degree 5, the size of the coset
        # of 7 mod 31: a shortest recurrence of 1 + x^5 (reducible) or of
        # 1 + x + x^3 (degree 3) fails the check in gf2field itself.
        import shrinkca.gf2field

        monkeypatch.setattr(
            shrinkca.gf2field, "_shortest_recurrence", lambda bits: (mask, mask.bit_length() - 1)
        )
        code, out, err = run_cli(capsys, "linearize", "--l1", "3", "--p2", cf.R2B_POLY)
        assert (code, out) == (3, "")
        assert err == "shrinkca: internal error: shortest recurrence is not a minimal polynomial\n"

    def test_automaton_count_invariant_exits_three(self, capsys, monkeypatch):
        # An irreducible base has a pair of automata; a walk that found none
        # is an internal error, reported by the synthesis itself.
        import shrinkca.linearizer

        monkeypatch.setattr(shrinkca.linearizer, "_first_mask", lambda *node: None)
        code, out, err = run_cli(capsys, "linearize", "--l1", "3", "--p2", cf.R2B_POLY)
        assert (code, out) == (3, "")
        assert err == (
            f"shrinkca: internal error: the walk found no automaton for the irreducible {cf.BASE5}\n"
        )

    def test_out_of_memory_exits_two_without_traceback(self, capsys, monkeypatch):
        import shrinkca.cli

        def exhausted(gen):
            raise MemoryError

        monkeypatch.setattr(shrinkca.cli, "verify_linearization", exhausted)
        code, out, err = run_cli(
            capsys,
            "attack",
            "--p1", cf.R1_POLY, "--s1", cf.R1_SEED,
            "--p2", cf.R2A_POLY, "--s2", cf.R2A_SEED,
        )
        assert (code, out) == (2, "")
        assert err == "shrinkca: error: out of memory\n"

    @pytest.mark.parametrize(
        "p2", ["1+x^3+x^31", "1+x+x^2+x^5+x^61"], ids=["degree-31", "degree-61"]
    )
    def test_linearize_over_the_search_degree_exits_two_at_once(self, p2):
        # Searched, degree 31 would take hours, and the primitivity test of
        # degree 61 would stall factoring 2^61 - 1: in a child, so that a
        # missing bound times out instead of hanging the suite.
        start = time.perf_counter()
        proc = run_child("linearize", "--l1", "1", "--p2", p2, timeout=10)
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout) == (2, "")
        degree = Gf2Poly.parse(p2).degree
        assert proc.stderr == (
            f"shrinkca: error: degree {degree} is over 22,"
            " the most the automaton search takes\n"
        )

    def test_linearize_at_the_search_degree(self):
        # The top of the bound, searched for real over nearly the whole rule
        # tree (about 1 s), in a child so that a slower search times out
        # instead of stalling the suite.
        p2 = Gf2Poly.parse(cf.LATE_PRIMITIVE_22)
        start = time.perf_counter()
        proc = run_child("linearize", "--l1", "1", "--p2", p2.to_bitstring(), timeout=30)
        assert time.perf_counter() - start < 10.0
        assert (proc.returncode, proc.stderr) == (0, "")
        pair = proc.stdout.split()
        assert len(pair) == 2
        for text in pair:
            assert shrinkca.ca_char_poly(RuleVector.parse(text)) == p2

    def test_malformed_polynomial(self, capsys):
        code, _, err = run_cli(
            capsys, "lfsr", "--poly", "10a1", "--seed", "100", "--count", "5"
        )
        assert code == 2 and "error" in err

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lfsr", "--poly", "1011", "--seed", "100"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        args = ("linearize", "--l1", "3", "--p2", cf.R2B_POLY, "--format", "json")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second


# Random argv: polynomials of degree <= 12, seeds, rules and counts, valid
# or not.  The degree stays small because is_primitive factors 2^r - 1 by
# trial division, which stalls at degrees near 61.
_VALUES = st.sampled_from(
    ["111", "1011", "11001", "10", "100", "1000", "1+x+x^3", "", " ", "2", "x^", "10a1", "-1"]
) | st.text("01", min_size=1, max_size=13)
_COUNTS = st.integers(-2, 40).map(str) | st.sampled_from(["10000000000", "x", "1.5", ""])


def _flag(name, values):
    return st.fixed_dictionaries({name: values})


def _register(poly, seed):
    """Two unrelated values, or a degree-d polynomial with a d-bit seed."""
    fitting = st.integers(1, 12).flatmap(
        lambda d: st.fixed_dictionaries({
            poly: st.text("01", min_size=d, max_size=d).map(lambda t: t + "1"),
            seed: st.text("01", min_size=d, max_size=d),
        })
    )
    return st.fixed_dictionaries({poly: _VALUES, seed: _VALUES}) | fitting


_REGISTERS = [_register("--p1", "--s1"), _register("--p2", "--s2")]
_FLAGS = {
    ("lfsr",): [_register("--poly", "--seed"), _flag("--count", _COUNTS)],
    ("shrink",): [*_REGISTERS, _flag("--count", _COUNTS)],
    ("ca", "run"): [_register("--rules", "--state"), _flag("--steps", _COUNTS)],
    ("ca", "charpoly"): [_flag("--rules", _VALUES)],
    ("linearize",): [_flag("--l1", _COUNTS), _flag("--p2", _VALUES)],
    ("bm",): [_flag("--seq", _VALUES), _flag("--seq-file", _VALUES)],
    ("attack",): _REGISTERS,
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = list(command)
    for group in _FLAGS[command]:
        if draw(st.integers(0, 7)):  # a group is left out one time in eight
            for flag, value in draw(group).items():
                argv += [flag, value]
    fmt = draw(st.sampled_from([None, "text", "json", "xml"]))
    return argv + ["--format", fmt] if fmt else argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_random_argv_ends_in_a_documented_exit_code(argv):
    # Every draw returns or exits through argparse with 0-3; any other
    # exception fails the test.  capsys is function-scoped, so output is
    # captured by redirection.
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
