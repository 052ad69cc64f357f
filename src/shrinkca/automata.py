"""One-dimensional hybrid 90/150 cellular automata with null boundaries.

Per cell, rule 90 is the XOR of the two neighbours and rule 150
additionally XORs the cell itself; virtual always-zero cells sit beyond
both ends.  Cells are numbered 1..L in prose; in code and wire formats
everything is 0-based with cell 1 leftmost.  States are packed into int
words, bit i = cell i+1, so one step is two shifts and a mask.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .gf2poly import Gf2Poly, _numeral

__all__ = [
    "RuleVector",
    "state_from_bits",
    "state_to_bits",
    "ca_step",
    "ca_run",
    "cell_output",
    "ca_char_poly",
    "fit_initial_state",
]


class RuleVector:
    """Per-cell rule assignment: 0 = rule 90, 1 = rule 150.

    Wire form is ``^[01]+$`` with cell 1 leftmost.
    """

    __slots__ = ("delta", "mask150", "_mask_all")

    def __init__(self, delta):
        delta = tuple(delta)
        if len(delta) < 1:
            raise ValueError("a rule vector needs at least one cell")
        if any(d not in (0, 1) for d in delta):
            raise ValueError("rule bits must be 0 or 1")
        self.delta = delta = tuple(map(int, delta))
        self.mask150 = sum(d << i for i, d in enumerate(delta))
        self._mask_all = (1 << len(delta)) - 1

    @classmethod
    def parse(cls, text: str) -> "RuleVector":
        s = text.strip()
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a rule string: {text!r}")
        return cls(int(c) for c in s)

    def mirror(self) -> "RuleVector":
        return RuleVector(self.delta[::-1])

    def __len__(self):
        return len(self.delta)

    def __iter__(self):
        return iter(self.delta)

    def __eq__(self, other):
        if not isinstance(other, RuleVector):
            return NotImplemented
        return self.delta == other.delta

    def __lt__(self, other):
        if not isinstance(other, RuleVector):
            return NotImplemented
        return self.delta < other.delta

    def __hash__(self):
        return hash((RuleVector, self.delta))

    def __str__(self):
        return "".join(str(d) for d in self.delta)

    def __repr__(self):
        return f"RuleVector.parse({str(self)!r})"


def state_from_bits(bits: Sequence[int]) -> int:
    """Pack a cell list (cell 1 first) into a state word."""
    return _numeral(list(bits)[::-1])


def state_to_bits(state: int, length: int) -> list[int]:
    """Unpack a state word into its cell list."""
    if not 0 <= state < (1 << length):
        raise ValueError("state does not fit the given length")
    return [(state >> i) & 1 for i in range(length)]


def _check_state(rules: RuleVector, state: int) -> None:
    if not isinstance(state, int) or not 0 <= state <= rules._mask_all:
        raise ValueError(
            f"state does not fit an automaton of length {len(rules)}"
        )


def ca_step(rules: RuleVector, state: int) -> int:
    """Advance one time step under the per-cell rules."""
    _check_state(rules, state)
    return ((state << 1) ^ (state >> 1) ^ (state & rules.mask150)) & rules._mask_all


def ca_run(rules: RuleVector, state: int, steps: int) -> list[int]:
    """States at times 0..steps inclusive."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    _check_state(rules, state)
    out = [state]
    mask150, mask_all = rules.mask150, rules._mask_all
    for _ in range(steps):
        state = ((state << 1) ^ (state >> 1) ^ (state & mask150)) & mask_all
        out.append(state)
    return out


def cell_output(states: Sequence[int], cell: int) -> list[int]:
    """Read one cell across time: the vertical sequence at index `cell`."""
    if cell < 0:
        raise ValueError("cell index must be nonnegative")
    return [(s >> cell) & 1 for s in states]


def _char_poly_bits(delta: Sequence[int]) -> int:
    # Three-term recurrence for the leading principal minors of x*I + M:
    # P_0 = 1, P_k = (x + d_k) P_(k-1) + P_(k-2).
    prev, cur = 1, 2 | delta[0]
    for d in delta[1:]:
        prev, cur = cur, (cur << 1) ^ (cur if d else 0) ^ prev
    return cur


def ca_char_poly(rules: RuleVector) -> Gf2Poly:
    """Characteristic polynomial of the transition matrix, degree L."""
    return Gf2Poly(_char_poly_bits(rules.delta))


def fit_initial_state(
    rules: RuleVector, target: Sequence[int]
) -> Optional[tuple[int, int]]:
    """Find (cell, initial state) whose cell output reproduces `target`.

    Solves the 2L observation equations of each cell in ascending order
    (free variables zeroed), then verifies the candidate against the
    whole target; returns the first success or None.  2L rows rather
    than L absorb rank deficiency of a single observed cell.
    """
    L = len(rules)
    if len(target) < 2 * L:
        raise ValueError(f"target must supply at least {2 * L} bits")
    mask_all = rules._mask_all
    for cell in range(L):
        # Row n of the system is e_cell M^n; the matrix is symmetric, so
        # rows evolve by the same stepping as states.
        rows = ca_run(rules, 1 << cell, 2 * L - 1)
        basis: dict[int, int] = {}
        consistent = True
        for n, row in enumerate(rows):
            cur = row | ((target[n] & 1) << L)
            while True:
                low = cur & mask_all
                if low == 0:
                    consistent = cur >> L == 0
                    break
                col = (low & -low).bit_length() - 1
                if col in basis:
                    cur ^= basis[col]
                else:
                    basis[col] = cur
                    break
            if not consistent:
                break
        if not consistent:
            continue
        state = 0
        for col in sorted(basis, reverse=True):
            row = basis[col]
            val = (row >> L) ^ ((row & mask_all & state).bit_count() & 1)
            if val & 1:
                state |= 1 << col
        produced = cell_output(ca_run(rules, state, len(target) - 1), cell)
        if produced == list(target):
            return cell, state
    return None
