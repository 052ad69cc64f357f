"""Shift-register keystream generation and bit-sequence utilities.

Bit streams follow the codec in `gf2poly`: `Lfsr.state` and `sequence`,
`ShrinkingGenerator.shrunken_sequence` and `parse_bits` are 0/1 bytes,
index 0 first emitted, and a run of them is packed as one big-endian
int of those bytes; `format_bits` prints any 0/1 sequence.
A register's characteristic polynomial annihilates its stream: with P
of degree r, every output bit satisfies a_n = sum of a_(n-r+j) over the
set coefficients j < r of P.  The seed is the first r emitted bits, so
(1,0,0) starts the stream 1,0,0,...  (The reciprocal-polynomial
convention, where taps read from the other end, is not used.)

Every register stream comes from one walk, `Lfsr._cycle`: from the seed,
or on from the last r bits of an open prefix, it steps in leaps whose
blocks, g bits wide at first for P(x) = Q(x**g), double (P(x)**2 =
P(x**2)) to the end of its first r bits and one cycle of T <= 2**r
bits, at most 2**r + 2r bits; the cycle repeats.  The shrunken keystream
is built from those cycles by decimation (Coppersmith, Krawczyk and
Mansour): read in rows of w, w the ones of a control cycle, its columns
are the data stream decimated at stride T, which is 2**L1 - 1 for a
primitive control.  Two rules bound it: a request for n kept bits is
refused when its n-th kept bit lies past the first 4n + MAX_WINDOW_BITS
register bits, and no register is clocked past them; and a request
whose register would XOR more than MAX_WINDOW_BITS blocks in its first
doubling is refused before it steps (`Lfsr._steps`).
"""

from collections.abc import Sequence
from itertools import compress, islice
from math import gcd

from .gf2poly import MAX_WINDOW_BITS, Gf2Poly, _bit_bytes, _bit_digits, _exponents, _Frozen
from .gf2poly import _read_bits

__all__ = [
    "Lfsr",
    "ShrinkingGenerator",
    "parse_bits",
    "format_bits",
    "sequence_period",
]

# Pair bytes 2*control + data: the kept ones, 2 and 3, become data bits.
_KEPT = bytes.maketrans(b"\2\3", b"\0\1")


def _kept(control: bytes, data: bytes) -> bytes:
    """The data bits where the equally long control stream holds a 1."""
    pairs = (int.from_bytes(control, "big") << 1) | int.from_bytes(data, "big")
    return pairs.to_bytes(len(control), "big").translate(_KEPT, b"\0\1")


def _clocked(bits: int, n: int) -> int:
    """`bits`, the register bits up to a request's n-th kept bit, if they are
    within 4n + MAX_WINDOW_BITS; a sparse control can need more.  An open
    control prefix at the bound asks for one bit more, and is refused."""
    if bits > (limit := 4 * n + MAX_WINDOW_BITS):
        raise ValueError(f"{n} kept bits would clock {bits} register bits, over {limit}")
    return bits


def parse_bits(text: str) -> bytes:
    """Parse ``^[01]+$`` into 0/1 bytes, index 0 leftmost."""
    return _read_bits(text)


def format_bits(bits: Sequence[int]) -> str:
    """Print a 0/1 sequence as its ``[01]*`` text, index 0 leftmost."""
    return _bit_digits(bits).decode()


class Lfsr(_Frozen):
    """Linear feedback shift register in Fibonacci form.

    `state` is the stream's first r bits, the bytes `sequence(r)` returns;
    the register is an immutable value (`_Frozen`), and generation is pure.
    """

    __slots__ = ("charpoly", "state")

    def __init__(self, charpoly: Gf2Poly, state: Sequence[int]):
        r = charpoly.degree
        if r < 1:
            raise ValueError("characteristic polynomial must have degree >= 1")
        state = _bit_bytes(state)
        if len(state) != r:
            raise ValueError(f"seed must supply exactly {r} bits")
        object.__setattr__(self, "charpoly", charpoly)
        object.__setattr__(self, "state", state)

    @property
    def length(self) -> int:
        return self.charpoly.degree

    def sequence(self, n: int) -> bytes:
        """First n output bits as 0/1 bytes: the first r bits, then the
        register's cycle repeated (`_cycle`), cut to n bits."""
        if n < 0:
            raise ValueError("count must be nonnegative")
        r = self.length
        bits, t = self._cycle(n)
        return (bits[:r] + bits[r:] * -(-(n - r) // t))[:n] if t else bits

    def _cycle(self, limit: int, bits: bytes = b"") -> tuple[bytes, int]:
        """The stream up to the end of its first cycle and the cycle length
        T, so bits[:r] + bits[r:] * k starts the stream for every k; or its
        first `limit` bits and 0 if the cycle does not close within them.
        An open prefix `bits`, searched already, steps on from its last r bits.

        With P = x**k * Q and Q(0) = 1, the stream from bit k <= r on
        follows the invertible Q, so it is purely periodic: the state at
        time r (bits r..2r-1) is on the cycle, and bytes.find finds its
        first recurrence.  A cycle has at most 2**r states, so no more than
        2**r + 2r bits are stepped."""
        r = self.length
        start, stop = max(len(bits) - r, 0), min(limit, (1 << r) + 2 * r)
        bits = bits[:start] + self._steps(stop - start, bits[start:] or self.state)
        end = bits.find(bits[r : 2 * r], max(start, r) + 1)
        return (bits, 0) if end < 0 else (bits[:end], end - r)

    def _steps(self, n: int, state: bytes) -> bytes:
        """First n output bits from the r bits `state`, by block leaps.  P's
        set coefficients j below x**r, read once per call, give the lags
        r - j, and g, the gcd of r and the lags, gives P(x) = Q(x**g), so
        P(x)**B = Q(x**(g*B)) for B = 2**k: once r/g blocks of g*B bits
        exist, the next is the XOR of the blocks (r - j)/g back.  The state's
        g-bit groups are the first blocks; every r/g new blocks, pairs merge
        into blocks twice as long.  A block is its output bytes read as one
        big-endian int.  A request whose first doubling, r/g new blocks or
        as many as it needs, takes over MAX_WINDOW_BITS block XORs (one per
        tap a block) is refused before any block is stepped; each later
        doubling takes as many XORs as a whole first one."""
        r = self.length
        lags = [r - j for j in _exponents(self.charpoly.bits)[:-1]]  # the last is r
        g = gcd(r, *lags)
        width = r // g  # blocks of g bits in the state
        if (xors := len(lags) * min(width, -(-(n - r) // g))) > MAX_WINDOW_BITS:
            raise ValueError(
                f"{len(lags)} taps would XOR {xors} blocks in one doubling, over {MAX_WINDOW_BITS}"
            )
        groups = (int.from_bytes(state[i : i + g], "big") for i in range(0, r, g))
        blocks, size = list(state) if g == 1 else list(groups), g  # g = 1 skips a loop per bit
        lags = [lag // g for lag in lags]
        while len(blocks) * size < n:
            if len(blocks) == 2 * width:
                blocks = [(hi << 8 * size) | lo for hi, lo in zip(blocks[::2], blocks[1::2])]
                size *= 2
            new = 0
            for lag in lags:
                new ^= blocks[-lag]
            blocks.append(new)
        seed = r // size  # blocks wholly in the seed, whose bytes are the state's
        tail = (block.to_bytes(size, "big") for block in blocks[seed:])
        return b"".join((state[: seed * size], *tail))[:n]

    def __repr__(self):
        return f"Lfsr({self.charpoly!r}, {list(self.state)!r})"


class ShrinkingGenerator(_Frozen):
    """Control register r1 gates data register r2: output bits of r2 where
    the simultaneous r1 bit is 1, discard the rest.  Register lengths must
    be coprime.  An immutable value (`_Frozen`), like its registers."""

    __slots__ = ("r1", "r2")

    def __init__(self, r1: Lfsr, r2: Lfsr):
        if gcd(r1.length, r2.length) != 1:
            raise ValueError(
                f"register lengths {r1.length} and {r2.length} must be coprime"
            )
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

    def shrunken_sequence(self, n: int) -> bytes:
        """First n kept bits of the data stream as 0/1 bytes.

        The control stream is a head of r1 bits with h ones, then a cycle
        of T bits with w ones at pos_0 < ... < pos_(w-1) (`Lfsr._cycle`), so
        kept bit h + i*w + k is data bit r1 + i*T + pos_k: column k of the
        keystream in rows of w is a slice of the data stream at stride T.
        With q the cycles needed, each register is clocked up to the n-th
        kept bit, and the keystream is those w slices of q or q - 1 bits
        when w <= q.  For w > q, where w short slices cost more, and for a
        control whose cycle does not close within the bits its first n ones
        need, each pair of register bits becomes one byte 2*control + data,
        and one translate deletes the bytes 0 and 1 (control 0) and maps 2
        and 3 to the data bit.  The seed is the control's first prefix, and
        it steps on only when short of n ones; n kept bits are refused when
        the n-th lies past the first 4n + MAX_WINDOW_BITS register bits, or
        when a register would XOR too many blocks stepping them (`Lfsr._steps`)."""
        if n < 0:
            raise ValueError("count must be nonnegative")
        if n and not any(self.r1.state):
            raise ValueError("control register produces no ones")
        r, bound = self.r1.length, 4 * n + MAX_WINDOW_BITS
        # The seed is the first prefix; one short of n ones steps on by its density, to at
        # most 2n + 2r + 2 bits (where a primitive control mostly holds n ones) or twice its
        # length, cut to the bound.  A seed longer than the bound may hold no ones before it.
        control, t = self.r1.state[:bound], 0
        while not t and (ones := control.count(1)) < n:
            size = min(len(control) * n // (ones or 1) + r, 2 * max(len(control), n + r + 1), bound)
            control, t = self.r1._cycle(_clocked(max(size, len(control) + 1), n), control)
        if t:
            head, cycle = control[:r], control[r:]
            h, w = head.count(1), cycle.count(1)
            if h < n and not w:
                raise ValueError("control register ran out of ones")
            q = -(-(n - h) // w) if h < n else 0
            # The data bits up to the n-th kept one: in cycle q, or in the head if q is 0.
            end = next(islice(compress(range(t), cycle), (n - h - 1) % w, None)) + 1 if q else t
            last = _clocked(r + (q - 1) * t + end, n)
            if 0 < w <= q:
                data = self.r2.sequence(last)
                out = bytearray(n)
                out[:h] = _kept(head, data[:r])
                for k, pos in enumerate(compress(range(t), cycle)):
                    out[h + k :: w] = data[r + pos :: t]
                return bytes(out)
            control = (head + cycle * q)[:last]
        return _kept(control, self.r2.sequence(len(control)))[:n]

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
