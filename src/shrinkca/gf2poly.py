"""Exact polynomial arithmetic over GF(2).

A polynomial is stored as a nonnegative int whose bit i holds the
coefficient of x^i, so addition is XOR and the canonical form (no
trailing zero coefficients) is automatic.  Two text forms are accepted:
ascending coefficient strings like ``"101001"`` (= 1 + x^2 + x^5) and
term sums like ``"1+x^2+x^5"``, where duplicate terms cancel.  The
canonical output form is the ascending bit string.

It also holds the package's bit codec: a bit sequence is any sequence
of the ints 0 and 1 (bools pass, ``1.0`` does not), held as 0/1 bytes,
index 0 first; its text is ``[01]+``, index 0 leftmost; a mask packs it
least significant first, as polynomials, rules, states and windows are.
Its Berlekamp-Massey loop is the package's one dependency finder.
"""

from __future__ import annotations

import re

__all__ = [
    "Gf2Poly",
    "ZERO",
    "ONE",
    "X",
    "poly_gcd",
    "poly_powmod",
    "is_irreducible",
    "is_primitive",
]

MAX_WINDOW_BITS = 1 << 22
"""Bound in bits on the attack window, a printed stream or orbit and a
`bm` stream, and so on the term exponents `Gf2Poly.parse` accepts: no
larger degree fits any of them.  The window is 2^(L1+L2) - 2^L1 bits,
so every L1 + L2 <= 22 fits; it takes about 60 MB at the bound."""

_BITSTRING = re.compile(r"[01]+")
_TERM = re.compile(r"1|x(\^[0-9]+)?")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bit_bytes(seq) -> bytes:
    """A 0/1 sequence as 0/1 bytes; every bit input passes this check."""
    try:
        raw = seq if isinstance(seq, bytes) else bytes(list(seq))
    except (TypeError, ValueError):  # an item that is not an int in range(256)
        raise ValueError("sequence bits must be 0 or 1") from None
    if raw.translate(None, b"\0\1"):
        raise ValueError("sequence bits must be 0 or 1")
    return raw


def _bit_digits(seq) -> bytes:
    """A 0/1 sequence as its ASCII digits b"0"/b"1", seq[0] first."""
    return _bit_bytes(seq).translate(_TO_DIGITS)


def _from_digits(digits: str) -> bytes:
    """The 0/1 bytes of a text known to hold only the digits 0 and 1."""
    return digits.encode().translate(_FROM_DIGITS)


def _read_bits(text: str, what: str = "bit string") -> bytes:
    """The 0/1 bytes of a ``[01]+`` text, index 0 leftmost and surrounding
    whitespace ignored; any other text is not a `what`."""
    s = text.strip()
    if not _BITSTRING.fullmatch(s):
        raise ValueError(f"not a {what}: {text!r}")
    return _from_digits(s)


def _mask(seq) -> int:
    """A 0/1 sequence packed least significant first: bit i = seq[i]."""
    return int(_bit_digits(seq)[::-1] or b"0", 2)


def _text(mask: int, length: int) -> str:
    """The text of a `length`-bit mask, bit 0 leftmost; "0" for (0, 0)."""
    return format(mask, f"0{length}b")[::-1]


def _reversed_mask(mask: int, length: int) -> int:
    """The `length`-bit mask read backwards: bit i moves to bit length-1-i."""
    return int(_text(mask, length), 2)


def _mul_bits(a: int, b: int) -> int:
    """Carry-less product of two masks: a shifted copy of a per set bit of b."""
    acc = 0
    while b:
        acc ^= a << ((b & -b).bit_length() - 1)
        b &= b - 1
    return acc


def _annihilates(op: int, window: int, n: int) -> bool:
    """True iff op(E), E the shift, kills the n-bit window wherever op fits.

    The window is a mask (bit t = stream bit t), so bit t + deg(op) of
    the carry-less window * reversed op is (op(E) stream)(t).  The whole
    operator fits for t < n - deg(op): the bits from deg(op) up to n - 1.
    """
    span = op.bit_length() - 1
    product = _mul_bits(window, _reversed_mask(op, span + 1))
    return not (product >> span) & ((1 << (n - span)) - 1)


def _divmod_bits(a: int, m: int) -> tuple[int, int]:
    if m == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = m.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= dm and a:
        shift = a.bit_length() - 1 - dm
        q |= 1 << shift
        a ^= m << shift
    return q, a


def _mulmod(a: int, b: int, m: int) -> int:
    return _divmod_bits(_mul_bits(a, b), m)[1]


def _shortest_recurrence(bits: bytes) -> tuple[int, int]:
    """Berlekamp-Massey on 0/1 bytes: (characteristic mask, LC) of the
    shortest recurrence generating them, (1, 0) if all are zero.  The
    feedback mask (bit i = tap at lag i) runs against a history (bit i =
    bits[n - i]) cut to `width` bits, rebuilt 4x as wide as the mask when
    the mask outgrows width/2, so a step costs O(LC) bit operations."""
    c, b = 1, 1  # current and previous feedback masks, bit 0 always set
    lc, m = 0, -1
    width, keep, rev = 64, (1 << 64) - 1, 0
    for n, s in enumerate(bits):
        rev = ((rev << 1) | s) & keep
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * lc <= n:
                lc, b, m = n + 1 - lc, t, n
            if c.bit_length() > width // 2:
                width = 4 * c.bit_length()
                keep = (1 << width) - 1
                rev = _mask(bits[max(0, n + 1 - width) : n + 1][::-1])
    return _reversed_mask(c, lc + 1), lc  # reversed over degree LC


class Gf2Poly:
    """Immutable polynomial over GF(2), coefficient of x^i at bit i."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if not isinstance(bits, int) or bits < 0:
            raise ValueError("coefficient mask must be a nonnegative int")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Gf2Poly is immutable")

    @classmethod
    def from_coeffs(cls, coeffs) -> "Gf2Poly":
        """Build from an ascending coefficient iterable of 0/1 values."""
        return cls(_mask(coeffs))

    @classmethod
    def parse(cls, text: str) -> "Gf2Poly":
        """Parse an ascending bit string or a ``1+x^2+x^5`` term sum; a term
        exponent over MAX_WINDOW_BITS is refused before it is expanded."""
        s = text.strip()
        if _BITSTRING.fullmatch(s):
            return cls(int(s[::-1], 2))
        s = "".join(s.split())
        if not s:
            raise ValueError("empty polynomial text")
        bits = 0
        for term in s.split("+"):
            if not _TERM.fullmatch(term):
                raise ValueError(f"bad polynomial term {term!r}")
            if term == "1":
                bits ^= 1
            elif term == "x":
                bits ^= 2
            else:
                k = int(term[2:])
                if k > MAX_WINDOW_BITS:
                    raise ValueError(f"term exponent {k} is over {MAX_WINDOW_BITS}")
                bits ^= 1 << k
        return cls(bits)

    @property
    def degree(self) -> int:
        """Index of the highest set coefficient; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def to_bitstring(self) -> str:
        """Canonical ascending-coefficient text form."""
        return _text(self.bits, self.bits.bit_length())

    def to_terms(self) -> str:
        """Human form, ascending: ``1+x^2+x^5``."""
        if self.bits == 0:
            return "0"
        parts = []
        for i in range(self.bits.bit_length()):
            if (self.bits >> i) & 1:
                parts.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return "+".join(parts)

    def __add__(self, other):
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return Gf2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return Gf2Poly(_mul_bits(self.bits, other.bits))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        acc, base = 1, self.bits
        while k:
            if k & 1:
                acc = _mul_bits(acc, base)
            base = _mul_bits(base, base)
            k >>= 1
        return Gf2Poly(acc)

    def __divmod__(self, other):
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        q, r = _divmod_bits(self.bits, other.bits)
        return Gf2Poly(q), Gf2Poly(r)

    def __floordiv__(self, other):
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return Gf2Poly(_divmod_bits(self.bits, other.bits)[0])

    def __mod__(self, other):
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return Gf2Poly(_divmod_bits(self.bits, other.bits)[1])

    def __eq__(self, other):
        if not isinstance(other, Gf2Poly):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash((Gf2Poly, self.bits))

    def __bool__(self):
        return bool(self.bits)

    def __str__(self):
        return self.to_bitstring()

    def __repr__(self):
        return f"Gf2Poly({self.to_bitstring()!r})"


ZERO = Gf2Poly(0)
ONE = Gf2Poly(1)
X = Gf2Poly(2)


def poly_gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """Greatest common divisor over GF(2)."""
    x, y = a.bits, b.bits
    while y:
        x, y = y, _divmod_bits(x, y)[1]
    return Gf2Poly(x)


def poly_powmod(base: Gf2Poly, k: int, m: Gf2Poly) -> Gf2Poly:
    """base**k reduced modulo m, by square-and-multiply."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if m.bits == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    acc = _divmod_bits(1, m.bits)[1]
    b = _divmod_bits(base.bits, m.bits)[1]
    while k:
        if k & 1:
            acc = _mulmod(acc, b, m.bits)
        b = _mulmod(b, b, m.bits)
        k >>= 1
    return Gf2Poly(acc)


def is_irreducible(p: Gf2Poly) -> bool:
    """True iff p has no nontrivial factor over GF(2).

    Uses the gcd(x^(2^i) - x, p) filter: a reducible polynomial of
    degree r has an irreducible factor of degree at most r // 2, and
    every such factor divides x^(2^i) - x for its own degree i.
    """
    r = p.degree
    if r < 1:
        raise ValueError("irreducibility is undefined for constant polynomials")
    b = 2  # x
    for _ in range(r // 2):
        b = _mulmod(b, b, p.bits)
        g = poly_gcd(Gf2Poly(b ^ 2), p)
        if g.degree != 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive(p: Gf2Poly) -> bool:
    """True iff p is irreducible and x has full order 2^degree - 1 mod p."""
    r = p.degree
    if r < 1:
        raise ValueError("primitivity is undefined for constant polynomials")
    if not is_irreducible(p):
        return False
    order = (1 << r) - 1
    if poly_powmod(X, order, p) != ONE:
        return False
    return all(poly_powmod(X, order // q, p) != ONE for q in _prime_factors(order))
