"""The four benchmark workloads: their inputs, their op, and their checks.

A workload makes a fixed pool of inputs from the seed, binds each input
to a zero-argument op before the clock starts, and turns each op's return
value into an outcome dict that the oracles check afterwards.  Ops look
their entry point up on the module at call time, so the tracer's
wrappers see the call.  Attack outcomes use the layout of
``AttackReport.to_dict()``, which is also what ``shrinkca attack
--format json`` prints, so library and CLI ops share one check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass

import oracles


@dataclass(frozen=True)
class Gen:
    """Shrinking-generator parameters as plain data."""

    p1: int
    s1: tuple
    p2: int
    s2: tuple

    @property
    def l1(self) -> int:
        return self.p1.bit_length() - 1

    @property
    def l2(self) -> int:
        return self.p2.bit_length() - 1


def _random_gen(rng: random.Random, l1: int, l2: int, p2: int | None = None) -> Gen:
    p1 = oracles.random_primitive(rng, l1)
    if p2 is None:
        p2 = oracles.random_primitive(rng, l2)
    return Gen(p1, tuple(oracles.random_seed(rng, l1)), p2, tuple(oracles.random_seed(rng, l2)))


def _distinct_primitives(rng: random.Random, r: int, count: int) -> list[int]:
    seen: list[int] = []
    while len(seen) < count:
        p = oracles.random_primitive(rng, r)
        if p not in seen:
            seen.append(p)
    return seen


def _library_gen(sc, g: Gen):
    lfsr = sc.generators.Lfsr
    poly = sc.gf2poly.Gf2Poly
    return sc.generators.ShrinkingGenerator(
        lfsr(poly(g.p1), list(g.s1)), lfsr(poly(g.p2), list(g.s2))
    )


# --- outcome checks --------------------------------------------------------


def _check_pair(lin: dict, base: int, l1: int) -> list[str]:
    """Both rule vectors have characteristic polynomial base^(2^(l1-1)),
    and undoing the doubling leaves two mirror-image base vectors."""
    fails = []
    want = oracles.poly_pow2k(base, l1 - 1)
    halves = []
    for key in ("rules_a", "rules_b"):
        rules = lin[key]
        if oracles.continuant(rules) != want:
            fails.append(f"{key} {rules} does not have characteristic polynomial base^p")
        for _ in range(l1 - 1):
            half = rules[: len(rules) // 2]
            if rules[len(half):] != half[::-1]:
                fails.append(f"{key} is not a doubled vector")
                break
            rules = half[:-1] + ("1" if half[-1] == "0" else "0")
        halves.append(rules)
    degenerate = base.bit_length() == 2 and halves[0] == halves[1]
    if not degenerate and halves[1] != halves[0][::-1]:
        fails.append(f"base vectors {halves[0]} / {halves[1]} are not mirror images")
    return fails


def _check_linearization(lin: dict, p2: int, l1: int) -> list[str]:
    base = oracles.parse_bitstring(lin["base_poly"])
    fails = []
    if base != oracles.minimal_polynomial(p2, (1 << l1) - 1):
        fails.append(f"base {lin['base_poly']} is not the minimal polynomial of alpha^N")
    deg = base.bit_length() - 1
    p = 1 << (l1 - 1)
    if lin["p"] != p or lin["L"] != deg * p or len(lin["rules_a"]) != deg * p:
        fails.append(f"p={lin['p']} L={lin['L']} disagree with degree {deg} and l1 {l1}")
        return fails
    return fails + _check_pair(lin, base, l1)


def check_attack(g: Gen, d: dict) -> list[str]:
    """Verdict, bounds, factorization, algebra and bit-for-bit replay."""
    for key in ("verdict", "lc_in_bounds", "factorization_ok"):
        if d.get(key) is not True:
            return [f"{key} is {d.get(key)!r}"]
    lin = d["linearization"]
    fails = _check_linearization(lin, g.p2, g.l1)
    if fails:
        return fails
    deg = len(lin["base_poly"]) - 1
    if d["linear_complexity"] != deg * d["measured_multiplicity"]:
        fails.append(
            f"LC {d['linear_complexity']} != deg(base) {deg} x multiplicity"
            f" {d['measured_multiplicity']}"
        )
    n = 2 * ((1 << g.l2) - 1) << (g.l1 - 1)
    if d["window_length"] != n:
        fails.append(f"window {d['window_length']} bits, expected {n}")
    if d["matched_rules"] not in (lin["rules_a"], lin["rules_b"]):
        fails.append("matched rules are neither vector of the pair")
    if fails:
        return fails
    literal = oracles.keystream(g.p1, list(g.s1), g.p2, list(g.s2), n)
    replay = oracles.ca_cell_stream(d["matched_rules"], d["initial_state"], d["matched_cell"], n)
    if replay != literal:
        fails.append("the matched cell does not replay the literal keystream")
    return fails


def attack_counts(d: dict) -> dict:
    lin = d.get("linearization") or {}
    deg = len(lin.get("base_poly", "")) - 1
    return {
        "generators.window_bits": d.get("window_length") or 0,
        "analysis.linear_complexity": d.get("linear_complexity") or 0,
        "analysis.measured_multiplicity": d.get("measured_multiplicity") or 0,
        "linearizer.cells": lin.get("L") or 0,
        "gf2field.base_degree": max(deg, 0),
        "linearizer.synthesize_ca_pair.candidates_computed": 1 << deg if deg > 0 else 0,
    }


# --- workloads -------------------------------------------------------------


class Workload:
    name = ""
    pool = 256  # inputs made per seed; ops cycle through them
    cycle = 4  # ops whose exact counts and probes are recorded
    memory_ops = 1  # ops in the tracemalloc pass, which runs pure Python ~25x slower

    def inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def bind(self, sc, inp):
        raise NotImplementedError

    def outcome(self, inp, raw) -> tuple[dict, dict]:
        """(outcome dict, exact counts) of one op's return value."""
        raise NotImplementedError

    def check(self, inp, d: dict) -> list[str]:
        raise NotImplementedError

    def generator(self, inp) -> Gen | None:
        """The generator an attack op ran, for the replay probes."""
        return None

    def agree(self, outcomes: list, pool: list) -> list[tuple[int, str]]:
        """(op, message) for ops whose outcomes disagree across inputs."""
        return []


class _VerifyWorkload(Workload):
    """verify_linearization on one generator per op."""

    def bind(self, sc, g: Gen):
        gen = _library_gen(sc, g)
        analysis = sc.analysis
        return lambda: analysis.verify_linearization(gen)

    def outcome(self, g, report):
        d = report.to_dict()
        return d, attack_counts(d)

    def check(self, g, d):
        return check_attack(g, d)

    def generator(self, g):
        return g


class LongWindow(_VerifyWorkload):
    """(3, 14): a 131 064-bit window over 56 cells, so keystream and
    Berlekamp-Massey do most of the work."""

    name = "long-window"

    def inputs(self, rng):
        p2s = _distinct_primitives(rng, 14, self.pool)
        return [_random_gen(rng, 3, 14, p2) for p2 in p2s]


class WideAutomaton(_VerifyWorkload):
    """(9, 5): 1 280 cells over a 15 872-bit window, so fit_initial_state
    does the work; the control for keystream and BM changes."""

    name = "wide-automaton"

    def inputs(self, rng):
        return [_random_gen(rng, 9, 5) for _ in range(self.pool)]


class LinearizeHighDegree(Workload):
    """`shrinkca linearize` at degree 17: no keystream, and the exhaustive
    synthesize_ca_pair search does the work."""

    name = "linearize-high-degree"

    def inputs(self, rng):
        p2s = _distinct_primitives(rng, 17, self.pool)
        return [(2 + i % 4, p2) for i, p2 in enumerate(p2s)]

    def bind(self, sc, inp):
        l1, p2 = inp
        poly = sc.gf2poly.Gf2Poly(p2)
        linearizer = sc.linearizer
        return lambda: linearizer.linearize_shrinking_generator(l1, poly)

    def outcome(self, inp, result):
        d = result.to_dict()
        deg = len(d["base_poly"]) - 1
        counts = {
            "linearizer.cells": d["L"],
            "gf2field.base_degree": deg,
            "linearizer.synthesize_ca_pair.candidates_computed": 1 << deg,
        }
        return d, counts

    def check(self, inp, d):
        l1, p2 = inp
        fails = _check_linearization(d, p2, l1)
        if d["N"] != (1 << l1) - 1:
            fails.append(f"N={d['N']} for l1={l1}")
        return fails


_TEXT_FIELDS = {
    "automata": re.compile(
        r"^automata +([01]+) / ([01]+) \(L=(\d+), base=([01]+), p=(\d+), N=(\d+)\)$", re.M
    ),
    "complexity": re.compile(r"^complexity +LC=(\d+), (inside|OUTSIDE) ", re.M),
    "factorization": re.compile(r"^factorization +[01]+\^(\d+) confirmed$", re.M),
    "replay": re.compile(r"^replay +cell (\d+) of ([01]+), state ([01]+)$", re.M),
    "verified": re.compile(r"^verified +period \d+ over a (\d+)-bit window$", re.M),
    "verdict": re.compile(r"^verdict +(\S+)", re.M),
}


def parse_attack_text(text: str) -> dict:
    """The fields of `shrinkca attack` text output, in to_dict() layout.

    Fields the text does not show are left out, and so are those of a
    missing line, or they read None; the checks report either."""
    m = {k: rx.search(text) for k, rx in _TEXT_FIELDS.items()}
    d: dict = {"verdict": bool(m["verdict"]) and m["verdict"].group(1) == "LINEAR"}
    if m["automata"]:
        a, b, length, base, p, n = m["automata"].groups()
        d["linearization"] = {
            "rules_a": a, "rules_b": b, "L": int(length), "base_poly": base,
            "p": int(p), "N": int(n),
        }
    if m["complexity"]:
        d["linear_complexity"] = int(m["complexity"].group(1))
        d["lc_in_bounds"] = m["complexity"].group(2) == "inside"
    d["factorization_ok"] = bool(m["factorization"])
    d["measured_multiplicity"] = int(m["factorization"].group(1)) if m["factorization"] else None
    if m["replay"]:
        cell, rules, state = m["replay"].groups()
        d.update(matched_cell=int(cell), matched_rules=rules, initial_state=state)
    else:
        d.update(matched_cell=None, matched_rules=None, initial_state=None)
    d["window_length"] = int(m["verified"].group(1)) if m["verified"] else None
    return d


class CliSmallSweep(Workload):
    """Many small `shrinkca attack` calls: fixed per-call costs dominate,
    and the same (L1, P2) pairs recur, as a per-pair cache would need."""

    name = "cli-small-sweep"
    sizes = ((2, 3), (3, 4), (3, 5), (2, 5), (4, 5), (4, 7), (5, 7))
    per_size = 2
    cycle = memory_ops = 2 * per_size * len(sizes)  # every call once

    def inputs(self, rng):
        gens = [_random_gen(rng, l1, l2) for l1, l2 in self.sizes for _ in range(self.per_size)]
        calls = [(g, fmt) for g in gens for fmt in ("json", "text")]
        rng.shuffle(calls)
        return calls

    def bind(self, sc, inp):
        g, fmt = inp
        argv = [
            "attack",
            "--p1", oracles.bitstring(g.p1), "--s1", "".join(map(str, g.s1)),
            "--p2", oracles.bitstring(g.p2), "--s2", "".join(map(str, g.s2)),
            "--format", fmt,
        ]
        cli = sc.cli

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return op

    def outcome(self, inp, raw):
        code, out = raw
        fmt = inp[1]
        d = json.loads(out) if fmt == "json" else parse_attack_text(out)
        d["exit_code"] = code
        d["stdout"] = out
        counts = attack_counts(d)
        counts["cli.stdout_bytes"] = len(out.encode())
        return d, counts

    def check(self, inp, d):
        if d["exit_code"] != 0:
            return [f"exit code {d['exit_code']}"]
        return check_attack(inp[0], d)

    def generator(self, inp):
        return inp[0]

    _SHARED = (
        "verdict", "linear_complexity", "measured_multiplicity", "matched_cell",
        "matched_rules", "initial_state", "window_length",
    )

    def agree(self, outcomes, pool):
        """json and text output of one generator report the same result."""
        seen: dict[Gen, tuple] = {}
        fails = []
        for i, item in enumerate(outcomes):
            if item is None:
                continue
            d = item[0]
            shown = tuple(d.get(k) for k in self._SHARED) + (d.get("linearization", {}).get("base_poly"),)
            g = pool[i % len(pool)][0]
            if seen.setdefault(g, shown) != shown:
                fails.append((i, "json and text output disagree for one generator"))
        return fails


WORKLOADS = {w.name: w for w in (LongWindow(), WideAutomaton(), LinearizeHighDegree(), CliSmallSweep())}
