"""Shift-register keystream generation and bit-sequence utilities.

Bit streams follow the codec in `gf2poly`: `Lfsr.sequence`,
`ShrinkingGenerator.shrunken_sequence` and `parse_bits` return 0/1
bytes, index 0 first emitted, which the attack pipeline reads without
unpacking, and `format_bits` prints any 0/1 sequence.  A register's
characteristic polynomial annihilates its stream: with P of degree r,
every output bit satisfies a_n = sum of a_(n-r+j) over the set
coefficients j < r of P.  The seed is the first r emitted bits, so
(1,0,0) starts the stream 1,0,0,...  (The reciprocal-polynomial
convention, where taps read from the other end, is not used.)
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .gf2poly import Gf2Poly, _bit_bytes, _bit_digits, _from_digits, _read_bits

__all__ = [
    "Lfsr",
    "ShrinkingGenerator",
    "parse_bits",
    "format_bits",
    "sequence_period",
]

_LEAP_MAX = 4096  # largest block of bits one leap step generates
# Pair bytes 2*control + data: the kept ones, 2 and 3, become data bits.
_KEPT = bytes.maketrans(b"\2\3", b"\0\1")


def parse_bits(text: str) -> bytes:
    """Parse ``^[01]+$`` into 0/1 bytes, index 0 leftmost."""
    return _read_bits(text)


def format_bits(bits: Sequence[int]) -> str:
    """Print a 0/1 sequence as its ``[01]*`` text, index 0 leftmost."""
    return _bit_digits(bits).decode()


class Lfsr:
    """Linear feedback shift register in Fibonacci form.

    `state` holds the first `degree` output bits; the register is
    immutable, and generation is pure.
    """

    __slots__ = ("charpoly", "state", "_lags")

    def __init__(self, charpoly: Gf2Poly, state: Sequence[int]):
        r = charpoly.degree
        if r < 1:
            raise ValueError("characteristic polynomial must have degree >= 1")
        state = tuple(_bit_bytes(state))
        if len(state) != r:
            raise ValueError(f"seed must supply exactly {r} bits")
        object.__setattr__(self, "charpoly", charpoly)
        object.__setattr__(self, "state", state)
        lags = tuple(r - j for j in range(r) if charpoly.coeff(j))
        object.__setattr__(self, "_lags", lags)

    def __setattr__(self, name, value):
        raise AttributeError("Lfsr is immutable")

    @property
    def length(self) -> int:
        return self.charpoly.degree

    def sequence(self, n: int) -> bytes:
        """First n output bits as 0/1 bytes.  P(x)**B = P(x**B) for B = 2**k,
        so once r blocks of B bits exist, the next block is the XOR of the
        blocks lag back, over the lags of P.  The r seed bits are the first
        blocks; every r new blocks, pairs merge into blocks twice as long,
        up to _LEAP_MAX bits."""
        if n < 0:
            raise ValueError("count must be nonnegative")
        r = self.length
        blocks, size = list(self.state), 1
        while len(blocks) * size < n:
            if len(blocks) == 2 * r and size < _LEAP_MAX:
                blocks = [(hi << size) | lo for hi, lo in zip(blocks[::2], blocks[1::2])]
                size *= 2
            new = 0
            for lag in self._lags:
                new ^= blocks[-lag]
            blocks.append(new)
        digits = "".join(format(block, f"0{size}b") for block in blocks)
        return _from_digits(digits[:n])

    def __repr__(self):
        return f"Lfsr({self.charpoly!r}, {list(self.state)!r})"


class ShrinkingGenerator:
    """Control register r1 gates data register r2: output bits of r2 where
    the simultaneous r1 bit is 1, discard the rest.  Register lengths must
    be coprime.  Immutable, like its registers."""

    __slots__ = ("r1", "r2")

    def __init__(self, r1: Lfsr, r2: Lfsr):
        if gcd(r1.length, r2.length) != 1:
            raise ValueError(
                f"register lengths {r1.length} and {r2.length} must be coprime"
            )
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

    def __setattr__(self, name, value):
        raise AttributeError("ShrinkingGenerator is immutable")

    def shrunken_sequence(self, n: int) -> bytes:
        """First n kept bits of the data stream as 0/1 bytes.  Each pair of
        register bits becomes one byte 2*control + data, and one translate
        deletes the bytes 0 and 1 (control 0) and maps 2 and 3 to the data
        bit."""
        if n < 0:
            raise ValueError("count must be nonnegative")
        if n and not any(self.r1.state):
            raise ValueError("control register produces no ones")
        # m is enough for a primitive control, 2**(L1-1) ones per 2**L1 - 1 bits;
        # a control cycle has at most 2**L1 states, so past `cap` the ones are gone.
        cap = (n + 1) << self.r1.length
        m = 2 * n + (2 << self.r1.length)
        while True:
            pairs = (int.from_bytes(self.r1.sequence(m), "big") << 1) | int.from_bytes(
                self.r2.sequence(m), "big"
            )
            kept = pairs.to_bytes(m, "big").translate(_KEPT, b"\0\1")
            if len(kept) >= n:
                return kept[:n]
            if m > cap:
                raise ValueError("control register ran out of ones")
            m *= 2

    def __repr__(self):
        return f"ShrinkingGenerator({self.r1!r}, {self.r2!r})"


def sequence_period(seq: Sequence[int]) -> int:
    """Smallest T >= 1 with seq[i + T] == seq[i] for all valid i.

    Window-relative: supply at least two full periods to claim a true
    period.  Computed via the prefix function in O(len).
    """
    n = len(seq)
    if n == 0:
        raise ValueError("period of an empty window is undefined")
    pi = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = pi[k - 1]
        if seq[i] == seq[k]:
            k += 1
        pi[i] = k
    return n - pi[-1]
