"""Keystream measurement and the end-to-end linearization verdict.

Linear complexity is measured with Berlekamp-Massey and reported in the
same characteristic-polynomial convention the generators use (the
polynomial annihilates the stream; it is the reciprocal of the feedback
form some treatments return).  The verdict routine ties everything
together: synthesize the automaton pair from (L1, P2), exhibit a cell
plus initial state that replays the keystream bit for bit, measure the
keystream, and confirm the measured polynomial is a bounded power of
the predicted base.  A window over MAX_WINDOW_BITS is refused before any
keystream is generated, and a zero seed before any automaton is
synthesized.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .automata import RuleVector, fit_initial_state
from .generators import ShrinkingGenerator, format_bits
from .gf2poly import MAX_WINDOW_BITS, Gf2Poly, _annihilates, _bit_bytes, _mask
from .gf2poly import _shortest_recurrence, _text, is_primitive
from .linearizer import LinearizationResult, linearize_shrinking_generator

__all__ = [
    "MAX_WINDOW_BITS",
    "BmResult",
    "AttackReport",
    "berlekamp_massey",
    "check_annihilation",
    "lc_bounds",
    "verify_linearization",
]

class BmResult(NamedTuple):
    """Minimal annihilating polynomial of a window and its degree."""

    connection_poly: Gf2Poly
    linear_complexity: int


def berlekamp_massey(seq: Sequence[int]) -> BmResult:
    """Shortest recurrence generating the window, by the package's one
    Berlekamp-Massey loop; LC = 0 with polynomial 1 for the all-zero window."""
    charpoly, lc = _shortest_recurrence(_bit_bytes(seq))
    return BmResult(Gf2Poly(charpoly), lc)


def check_annihilation(q: Gf2Poly, multiplicity: int, seq: Sequence[int]) -> bool:
    """True iff the shift operator q(E)**multiplicity kills the window:
    one carry-less product of the packed window and the operator."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    span = q.degree * multiplicity  # checked before the power is formed
    if span < 0:
        raise ValueError("the zero operator annihilates nothing meaningfully")
    if len(seq) < span + 1:
        raise ValueError(f"window shorter than the operator span {span + 1}")
    return _annihilates((q**multiplicity).bits, _mask(seq), len(seq))


def lc_bounds(l1: int, l2: int) -> tuple[int, int]:
    """Linear-complexity bracket (exclusive lower, inclusive upper) for a
    shrinking generator with register lengths l1, l2.  It needs l2 >= 2:
    a primitive data register of length 1 emits only ones, so its
    keystream is constant and has LC 1 at every l1."""
    if l1 < 2:
        raise ValueError("lower bound undefined for control length < 2")
    if l2 < 2:
        raise ValueError("bracket undefined for data length < 2")
    return l2 << (l1 - 2), l2 << (l1 - 1)


class AttackReport(NamedTuple):
    """Everything measured while linearizing one shrinking generator."""

    generator: ShrinkingGenerator
    linearization: LinearizationResult
    linear_complexity: int
    lc_bounds: Optional[tuple[int, int]]
    lc_in_bounds: Optional[bool]
    measured_multiplicity: Optional[int]
    factorization_ok: bool
    matched_rules: Optional[RuleVector]
    matched_cell: Optional[int]
    initial_state: Optional[int]
    window_length: int
    verified_period: int
    verdict: bool

    def to_dict(self) -> dict:
        state, length = self.initial_state, self.linearization.length
        r1, r2 = self.generator.r1, self.generator.r2
        return {
            "generator": {
                "l1": r1.length,
                "p1": r1.charpoly.to_bitstring(),
                "seed1": format_bits(r1.state),
                "l2": r2.length,
                "p2": r2.charpoly.to_bitstring(),
                "seed2": format_bits(r2.state),
            },
            "linearization": self.linearization.to_dict(),
            "linear_complexity": self.linear_complexity,
            "lc_bounds": list(self.lc_bounds) if self.lc_bounds else None,
            "lc_in_bounds": self.lc_in_bounds,
            "measured_multiplicity": self.measured_multiplicity,
            "factorization_ok": self.factorization_ok,
            "matched_rules": str(self.matched_rules) if self.matched_rules else None,
            "matched_cell": self.matched_cell,
            "initial_state": None if state is None else _text(state, length),
            "window_length": self.window_length,
            "verified_period": self.verified_period,
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lin, r1, r2 = self.linearization, self.generator.r1, self.generator.r2
        lines = [
            f"generator     l1={r1.length} p1={r1.charpoly} seed1={format_bits(r1.state)}"
            f" | l2={r2.length} p2={r2.charpoly} seed2={format_bits(r2.state)}",
            f"automata      {lin.rules_a} / {lin.rules_b}"
            f" (L={lin.length}, base={lin.base_poly}, p={lin.multiplicity}, N={lin.coset_n})",
        ]
        if self.lc_bounds:
            lo, hi = self.lc_bounds
            verdict = "inside" if self.lc_in_bounds else "OUTSIDE"
            lines.append(
                f"complexity    LC={self.linear_complexity}, {verdict} ({lo}, {hi}]"
            )
        else:
            lines.append(f"complexity    LC={self.linear_complexity}")
        if self.factorization_ok:
            lines.append(
                f"factorization {lin.base_poly}^{self.measured_multiplicity} confirmed"
            )
        else:
            lines.append("factorization FAILED")
        if self.verdict:
            lines.append(
                f"replay        cell {self.matched_cell} of {self.matched_rules},"
                f" state {_text(self.initial_state, lin.length)}"
            )
            lines.append(
                f"verified      period {self.verified_period}"
                f" over a {self.window_length}-bit window"
            )
        lines.append(f"verdict       {'LINEAR' if self.verdict else 'NOT REPRODUCED'}")
        return "\n".join(lines)


def verify_linearization(gen: ShrinkingGenerator) -> AttackReport:
    """Run the whole pipeline against one generator and report.

    The verdict is true iff some cell of the synthesized pair replays the
    keystream over the full window of twice its period, which holds iff
    cell 1 of rules_a does; a false verdict is a result, not an error.
    The window stays 0/1 bytes from the registers to the fit and to
    Berlekamp-Massey.  The fit comes first: a replayed window is measured
    on its first 2L bits (L cells), exactly, and any other window whole.
    """
    r1, r2 = gen.r1, gen.r2
    l1, l2 = r1.length, r2.length
    period = ((1 << l2) - 1) << (l1 - 1)
    if 2 * period > MAX_WINDOW_BITS:
        raise ValueError(
            f"the window would be {2 * period} bits, over {MAX_WINDOW_BITS}"
        )
    if not is_primitive(r1.charpoly):
        raise ValueError(f"control polynomial {r1.charpoly} must be primitive")
    if not any(r1.state) or not any(r2.state):
        raise ValueError("register seeds must be nonzero")
    lin = linearize_shrinking_generator(l1, r2.charpoly)  # tests r2 for primitivity
    window = gen.shrunken_sequence(2 * period)

    # rules_b shares the characteristic polynomial of rules_a, so its
    # cells span the same solution space: fitting it too adds nothing.
    fit = fit_initial_state(lin.rules_a, window)
    verdict = fit is not None
    matched_rules = lin.rules_a if verdict else None
    matched_cell, initial_state = fit if verdict else (None, None)

    # A replayed window obeys chi(E) of degree L = lin.length, so by
    # Massey's theorem its first 2L bits fix its polynomial.
    bm = berlekamp_massey(window[: 2 * lin.length] if verdict else window)
    lc, base = bm.linear_complexity, lin.base_poly
    try:
        bounds: Optional[tuple[int, int]] = lc_bounds(l1, l2)
    except ValueError:  # no bracket for a register of length 1
        bounds = None
    # One bracket (lo, hi] decides both checks; hi is L either way, as
    # coprime lengths give deg(base) = l2.  The equality fixes LC as a
    # multiple of deg(base), so LC <= L caps the multiplicity at p.
    lo, hi = bounds or (0, lin.length)
    inside = lo < lc <= hi
    fact_ok = inside and base ** (lc // base.degree) == bm.connection_poly

    return AttackReport(
        generator=gen,
        linearization=lin,
        linear_complexity=lc,
        lc_bounds=bounds,
        lc_in_bounds=inside if bounds else None,
        measured_multiplicity=lc // base.degree if fact_ok else None,
        factorization_ok=fact_ok,
        matched_rules=matched_rules,
        matched_cell=matched_cell,
        initial_state=initial_state,
        window_length=len(window),
        verified_period=period if verdict else 0,
        verdict=verdict,
    )
