"""One-dimensional hybrid 90/150 cellular automata with null boundaries.

Per cell, rule 90 is the XOR of the two neighbours and rule 150
additionally XORs the cell itself; virtual always-zero cells sit beyond
both ends.  Cells are numbered 1..L in prose; in code and wire formats
everything is 0-based with cell 1 leftmost.  States are packed into int
words, bit i = cell i+1, so one step is two shifts and a mask.

Cell 1 observes the whole state: its bit at time k depends on cell k+1
and on no cell beyond, so its first L bits fix the state, and its streams
fill the L-dimensional solution space of chi(E) y = 0 (chi the
characteristic polynomial) that every cell's stream lies in.  The rule
solved for the right neighbour carries a stream from cell 1 across all
the cells; `fit_initial_state` fits and checks a target that way, by
the continuant recurrence of `_char_poly_bits` run on the target.
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

    Held as the packed mask of rule-150 cells (bit i = cell i+1) and the
    length.  Wire form is ``^[01]+$`` with cell 1 leftmost; vectors order
    as their wire forms do.
    """

    __slots__ = ("mask150", "_length")

    def __init__(self, delta):
        delta = tuple(delta)
        if len(delta) < 1:
            raise ValueError("a rule vector needs at least one cell")
        if any(d not in (0, 1) for d in delta):
            raise ValueError("rule bits must be 0 or 1")
        self.mask150, self._length = _numeral(delta[::-1]), len(delta)

    @classmethod
    def parse(cls, text: str) -> "RuleVector":
        s = text.strip()
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a rule string: {text!r}")
        return cls(map(int, s))

    @property
    def delta(self) -> tuple[int, ...]:
        """The rule bits, cell 1 first."""
        return tuple(map(int, str(self)))

    def mirror(self) -> "RuleVector":
        return RuleVector.parse(str(self)[::-1])

    def __len__(self):
        return self._length

    def __iter__(self):
        return iter(self.delta)

    def __eq__(self, other):
        if not isinstance(other, RuleVector):
            return NotImplemented
        return self._length == other._length and self.mask150 == other.mask150

    def __lt__(self, other):
        if not isinstance(other, RuleVector):
            return NotImplemented
        return str(self) < str(other)

    def __hash__(self):
        return hash((RuleVector, self._length, self.mask150))

    def __str__(self):
        return format(self.mask150, f"0{self._length}b")[::-1]

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


def ca_step(rules: RuleVector, state: int) -> int:
    """Advance one time step under the per-cell rules."""
    return ca_run(rules, state, 1)[1]


def ca_run(rules: RuleVector, state: int, steps: int) -> list[int]:
    """States at times 0..steps inclusive."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if not isinstance(state, int) or not 0 <= state < (1 << len(rules)):
        raise ValueError(f"state does not fit an automaton of length {len(rules)}")
    out = [state]
    mask150, mask_all = rules.mask150, (1 << len(rules)) - 1
    for _ in range(steps):
        state = ((state << 1) ^ (state >> 1) ^ (state & mask150)) & mask_all
        out.append(state)
    return out


def cell_output(states: Sequence[int], cell: int) -> list[int]:
    """Read one cell across time: the vertical sequence at index `cell`."""
    if cell < 0:
        raise ValueError("cell index must be nonnegative")
    return [(s >> cell) & 1 for s in states]


def _char_poly_bits(mask150: int, length: int) -> int:
    # Three-term recurrence for the leading principal minors of x*I + M:
    # P_0 = 1, P_k = (x + d_k) P_(k-1) + P_(k-2).
    prev, cur = 1, 2 | (mask150 & 1)
    for k in range(1, length):
        prev, cur = cur, (cur << 1) ^ (cur if (mask150 >> k) & 1 else 0) ^ prev
    return cur


def ca_char_poly(rules: RuleVector) -> Gf2Poly:
    """Characteristic polynomial of the transition matrix, degree L."""
    return Gf2Poly(_char_poly_bits(rules.mask150, len(rules)))


def fit_initial_state(
    rules: RuleVector, target: Sequence[int]
) -> Optional[tuple[int, int]]:
    """Find (cell, initial state) whose cell output reproduces `target`.

    The cell is always 0: cell 1 observes the whole state, so if any
    cell replays the target, cell 1 does.  The rule solved for the right
    neighbour, x_(k+1)(t) = x_k(t+1) + d_k x_k(t) + x_(k-1)(t), carries
    the target across the cells on one packed int, cell k+1 fixed at
    times 0..n-1-k: the space-time cells of a replay, by columns.  The
    state is their time-0 column, and it replays the target iff the
    implied cell L+1, the null boundary, is zero wherever it is fixed.
    Returns (0, state) or None.  The target needs 2L or more 0/1 bits.
    """
    L, n = len(rules), len(target)
    if n < 2 * L:
        raise ValueError(f"target must supply at least {2 * L} bits")
    mask150, mask_all = rules.mask150, (1 << n) - 1
    # Bit n-1-t of cur is cell k+1 at time t, of prev cell k.
    prev, cur, state = 0, _numeral(target), 0
    for k in range(L):
        state |= (cur >> (n - 1)) << k
        nxt = (cur << 1) ^ (cur if (mask150 >> k) & 1 else 0) ^ prev
        prev, cur = cur, nxt & mask_all
    return None if cur >> L else (0, state)
