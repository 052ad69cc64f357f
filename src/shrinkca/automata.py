"""One-dimensional hybrid 90/150 cellular automata with null boundaries.

Per cell, rule 90 is the XOR of the two neighbours and rule 150
additionally XORs the cell itself; virtual always-zero cells sit beyond
both ends.  Cells are numbered 1..L in prose; in code and wire formats
everything is 0-based with cell 1 leftmost.  States are packed into int
words, bit i = cell i+1, so one step is two shifts and a mask.

Cell 1 observes the whole state.  Solved for the right neighbour, the
rule gives cell k+1's stream as P_k(E) applied to cell 1's, where P_k is
the k-th continuant P_0 = 1, P_k = (x + d_k) P_(k-1) + P_(k-2) (E the
shift, d_k cell k's rule), and P_L is chi, the characteristic
polynomial.  So cell 1's first L bits fix the state, and its streams
fill the L-dimensional solution space of chi(E) y = 0 that every cell's
stream lies in.  `fit_initial_state` runs that recurrence once on L-bit
ints: the continuants read the state off the target's first L bits, and
chi(E) applied to the whole target checks it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .gf2poly import Gf2Poly, _annihilates, _bit_bytes, _from_digits, _mask
from .gf2poly import _read_bits, _reversed_mask, _text

__all__ = [
    "RuleVector",
    "state_from_bits",
    "state_to_bits",
    "ca_run",
    "cell_output",
    "ca_char_poly",
    "fit_initial_state",
]


class RuleVector:
    """Per-cell rule assignment: 0 = rule 90, 1 = rule 150.

    Held as one int: the packed mask of rule-150 cells (bit i = cell
    i+1) under a marker bit at position L, so the length is the bit
    length less one.  Wire form is ``^[01]+$`` with cell 1 leftmost;
    vectors order as their wire forms do.
    """

    __slots__ = ("_marked",)

    def __init__(self, delta):
        delta = _bit_bytes(delta)
        if not delta:
            raise ValueError("a rule vector needs at least one cell")
        self._marked = _mask(delta) | (1 << len(delta))

    @classmethod
    def _from_mask(cls, mask150: int, length: int) -> "RuleVector":
        """The vector of `length` cells whose rule-150 mask is `mask150`."""
        rules = object.__new__(cls)
        rules._marked = mask150 | (1 << length)
        return rules

    @classmethod
    def parse(cls, text: str) -> "RuleVector":
        return cls(_read_bits(text, "rule string"))

    @property
    def mask150(self) -> int:
        """The rule-150 cells, bit i = cell i+1."""
        return self._marked ^ (1 << len(self))

    @property
    def delta(self) -> tuple[int, ...]:
        """The rule bits, cell 1 first."""
        return tuple(map(int, str(self)))

    def mirror(self) -> "RuleVector":
        length = len(self)
        return RuleVector._from_mask(_reversed_mask(self.mask150, length), length)

    def __len__(self):
        return self._marked.bit_length() - 1

    def __iter__(self):
        return iter(self.delta)

    def __eq__(self, other):
        if not isinstance(other, RuleVector):
            return NotImplemented
        return self._marked == other._marked

    def __lt__(self, other):
        if not isinstance(other, RuleVector):
            return NotImplemented
        return str(self) < str(other)

    def __hash__(self):
        return hash((RuleVector, self._marked))

    def __str__(self):
        return _text(self.mask150, len(self))

    def __repr__(self):
        return f"RuleVector.parse({str(self)!r})"


def state_from_bits(bits: Sequence[int]) -> int:
    """Pack a cell list (cell 1 first) into a state word."""
    return _mask(bits)


def state_to_bits(state: int, length: int) -> bytes:
    """Unpack a state word into its cells as 0/1 bytes, cell 1 first."""
    if not 0 <= state < (1 << length):
        raise ValueError("state does not fit the given length")
    return _from_digits(_text(state, length))[:length]  # the empty mask's text is "0"


def _orbit(rules: RuleVector, state: int, steps: int) -> Iterator[int]:
    """The states at times 0..steps, one at a time.  The arguments are
    checked here, before the first state is asked for."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if not isinstance(state, int) or not 0 <= state < (1 << len(rules)):
        raise ValueError(f"state does not fit an automaton of length {len(rules)}")

    def states(state, mask150, mask_all):
        yield state
        for _ in range(steps):
            state = ((state << 1) ^ (state >> 1) ^ (state & mask150)) & mask_all
            yield state

    return states(state, rules.mask150, (1 << len(rules)) - 1)


def ca_run(rules: RuleVector, state: int, steps: int) -> list[int]:
    """States at times 0..steps inclusive."""
    return list(_orbit(rules, state, steps))


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
    cell replays the target, cell 1 does.  Cell k+1 at time 0 is P_k(E)
    applied to the target at time 0, P_k the k-th continuant of the
    rules (see the module docstring), so the state is read off the
    target's first L bits in L steps on ints of at most L + 1 bits.  The
    last continuant is chi, and the state replays the target iff chi(E)
    kills it wherever the whole operator fits in the window: the implied
    cell L+1, the null boundary, is zero there.  That check is one
    carry-less product, a shifted copy of the window per term of chi;
    doubled rules have chi = base(x^(2^j)), whose terms are few.
    Returns (0, state) or None.  The target needs 2L or more 0/1 bits.
    """
    L, n = len(rules), len(target)
    if n < 2 * L:
        raise ValueError(f"target must supply at least {2 * L} bits")
    window = _mask(target)  # bit t = target[t]; checks the bits
    head = window & ((1 << L) - 1)
    mask150 = rules.mask150
    prev, cur, state = 0, 1, 0
    for k in range(L):
        state |= ((cur & head).bit_count() & 1) << k
        prev, cur = cur, (cur << 1) ^ (cur if (mask150 >> k) & 1 else 0) ^ prev
    return (0, state) if _annihilates(cur, window, n) else None
