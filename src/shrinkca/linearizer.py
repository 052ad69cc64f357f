"""Construction of linear automata that mimic a shrinking generator.

Pipeline: the control length L1 and data polynomial P2 determine the
minimal polynomial P of alpha^(2^L1 - 1); a pair of 90/150 automata with
characteristic polynomial P is synthesized by a pure depth-first
recursion over the continuants of the rule vectors, in wire order, that
stops at the first vector and takes its mirror image as the second; the
doubling construction (flip the last rule, append the mirror image) is
applied L1 - 1 times, squaring the characteristic polynomial each time.
The control polynomial itself is never consulted, so all generators
sharing (L1, P2) map to the same pair.  The doubled length L =
degree(base) * 2^(L1 - 1) is refused above MAX_CELLS before any doubling.
"""

from collections import namedtuple

from .automata import RuleVector
from .gf2field import minimal_polynomial_of_power
from .gf2poly import Gf2Poly, _reversed_mask, is_irreducible

__all__ = [
    "MAX_CELLS",
    "LinearizationResult",
    "concat_double",
    "synthesize_ca_pair",
    "linearize_shrinking_generator",
]

MAX_CELLS = 1 << 16
"""Most cells `linearize_shrinking_generator` builds an automaton of; the
fit of one costs O(L^2) bit operations, about 0.3 s at this limit, almost
all in the continuants (best of 5 direct calls, 2-vCPU host)."""

_MAX_SEARCH_DEGREE = 22
"""Highest base degree `synthesize_ca_pair` searches: the walk takes at
most 2^degree steps, about a third of that on average (the whole tree
takes about 1.2 s at degree 22 on a 2-vCPU Xeon), and the attack window
already caps the data register at degree 21."""


class LinearizationResult(namedtuple("LinearizationResult", """rules_a
        rules_b
        base_poly
        multiplicity
        length
        coset_n
        degenerate""", defaults=[False])):
    """Pair of rule vectors plus the parameters that produced them.

    Both RuleVectors have characteristic polynomial base_poly**multiplicity (a
    Gf2Poly, an int) and length degree(base_poly) * multiplicity, an int like
    coset_n.  The bool `degenerate` marks the degree-1 case: `rules_a is rules_b`.
    """
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "rules_a": str(self.rules_a),
            "rules_b": str(self.rules_b),
            "base_poly": self.base_poly.to_bitstring(),
            "p": self.multiplicity,
            "L": self.length,
            "N": self.coset_n,
        }


def concat_double(rules: RuleVector) -> RuleVector:
    """Flip the last rule, then append the mirror image; length doubles.

    On the packed mask: flip bit L-1, then place the head's L bits,
    reversed, above it.  The characteristic polynomial of the result is
    the square of the input's.
    """
    L = len(rules)
    head = rules.mask150 ^ (1 << (L - 1))
    return RuleVector._from_mask(head | (_reversed_mask(head, L) << L), 2 * L)


def _check_search_degree(degree: int) -> None:
    if degree > _MAX_SEARCH_DEGREE:
        raise ValueError(
            f"degree {degree} is over {_MAX_SEARCH_DEGREE},"
            " the most the automaton search takes"
        )


def _first_mask(target: int, last: int, prev: int, cur: int, mask: int, bit: int):
    """First mask in wire order under the node (P_(k-1), P_k) = (prev, cur),
    d_1..d_k in `mask`, `bit` = 1 << k, whose continuant at bit `last` is
    target, or None: the d = 0 child before the d = 1 child, and the walk
    stops at its first match."""
    up = (cur << 1) ^ prev  # x * P_k + P_(k-1); d_(k+1) = 1 adds P_k
    if bit == last:
        return mask if target == up else mask | bit if target == up ^ cur else None
    found = _first_mask(target, last, cur, up, mask, bit << 1)
    if found is None:
        found = _first_mask(target, last, cur, up ^ cur, mask | bit, bit << 1)
    return found


def synthesize_ca_pair(p: Gf2Poly) -> tuple[RuleVector, ...]:
    """All rule vectors of length degree(p) with characteristic polynomial p.

    p must be irreducible.  Such a p has one vector and its mirror image
    (Cattell and Muzio, IEEE TCAD 15(3), 1996), and a continuant is the
    same read backwards, so a depth-first walk over the continuants, in
    wire order, stops at the first vector and mirrors it: two vectors in
    wire order, collapsing to one for degree 1.  The walk takes at most
    2^degree steps, about a third of that on average, so a degree over 22
    is refused before it.
    """
    _check_search_degree(p.degree)
    if not is_irreducible(p):
        raise ValueError(f"{p} is reducible; no irreducible-power automaton exists")
    r = p.degree
    mask = _first_mask(p.bits, 1 << (r - 1), 0, 1, 0, 1)
    if mask is None:
        raise RuntimeError(f"the walk found no automaton for the irreducible {p}")
    first = RuleVector._from_mask(mask, r)
    second = first.mirror()
    return (first,) if second == first else (first, second)


def linearize_shrinking_generator(l1: int, p2: Gf2Poly) -> LinearizationResult:
    """Build the automaton pair for a shrinking generator with control
    length l1 and primitive data polynomial p2.

    Coprimality of the register lengths is a property of the generator,
    not of this pipeline; with coprime lengths the base polynomial has
    full degree and the result length is degree(p2) * 2^(l1 - 1).
    """
    if l1 < 1:
        raise ValueError("control length must be >= 1")
    # degree(base) >= 1, so L >= 2^(l1 - 1): a huge l1 is refused before
    # 2^l1 is formed.
    if l1 > MAX_CELLS.bit_length():
        raise ValueError(f"control length {l1} gives over {MAX_CELLS} cells")
    # For l1 <= 17 a primitive p2 of degree over 22 gives a base of its own
    # degree, so the bound can refuse p2 before its primitivity test, which
    # factors 2^degree - 1 by trial division.
    _check_search_degree(p2.degree)
    n = (1 << l1) - 1
    base = minimal_polynomial_of_power(p2, n)  # tests p2 for primitivity
    length = base.degree << (l1 - 1)
    if length > MAX_CELLS:
        raise ValueError(f"the automata would have {length} cells, over {MAX_CELLS}")
    pair = synthesize_ca_pair(base)
    for _ in range(l1 - 1):
        pair = tuple(map(concat_double, pair))
    return LinearizationResult(
        rules_a=pair[0],
        rules_b=pair[-1],
        base_poly=base,
        multiplicity=1 << (l1 - 1),
        length=length,
        coset_n=n,
        degenerate=len(pair) == 1,
    )
