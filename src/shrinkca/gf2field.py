"""Arithmetic in GF(2^r) and conjugate-set machinery.

A field context fixes an irreducible modulus of degree r; elements are
residue polynomials of degree < r.  The generator element alpha is the
residue of x, which is primitive whenever the modulus is.  On top of
that sit the cyclotomic coset of an exponent, the minimal polynomial of
alpha^N (the product of (x + alpha^(N 2^j)) over the coset, which lands
back in GF(2)[x]), and explicit solutions of recurrences whose
characteristic polynomial is an irreducible power.
"""

from __future__ import annotations

from typing import Sequence

from .gf2poly import Gf2Poly, is_irreducible, is_primitive, poly_powmod

__all__ = [
    "FieldContext",
    "FieldElement",
    "cyclotomic_coset",
    "minimal_polynomial_of_power",
    "evaluate_solution",
]


class FieldContext:
    """GF(2^r) presented as GF(2)[x] modulo an irreducible polynomial."""

    __slots__ = ("modulus", "r", "order")

    def __init__(self, modulus: Gf2Poly):
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus} is reducible")
        self.modulus = modulus
        self.r = modulus.degree
        self.order = (1 << self.r) - 1

    def element(self, value) -> "FieldElement":
        """Wrap an int coefficient mask or Gf2Poly, reducing mod the modulus."""
        bits = value.bits if isinstance(value, Gf2Poly) else int(value)
        return FieldElement(self, (Gf2Poly(bits) % self.modulus).bits)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, (Gf2Poly(1) % self.modulus).bits)

    def alpha(self) -> "FieldElement":
        """The residue of x, a generator when the modulus is primitive."""
        return FieldElement(self, (Gf2Poly(2) % self.modulus).bits)

    def __eq__(self, other):
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((FieldContext, self.modulus))

    def __repr__(self):
        return f"FieldContext({self.modulus!r})"


class FieldElement:
    """Element of a FieldContext; never mixes with another context."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx: FieldContext, bits: int):
        self.ctx = ctx
        self.bits = bits

    def _same(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if self.ctx != other.ctx:
            raise ValueError("elements belong to different field contexts")

    def __add__(self, other):
        self._same(other)
        return FieldElement(self.ctx, self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        self._same(other)
        prod = Gf2Poly(self.bits) * Gf2Poly(other.bits)
        return FieldElement(self.ctx, (prod % self.ctx.modulus).bits)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return FieldElement(
            self.ctx, poly_powmod(Gf2Poly(self.bits), k, self.ctx.modulus).bits
        )

    def trace(self) -> int:
        """Conjugate sum over GF(2): always 0 or 1."""
        acc = 0
        cur = self
        for _ in range(self.ctx.r):
            acc ^= cur.bits
            cur = cur * cur
        if acc not in (0, 1):
            raise RuntimeError("trace left the base field")  # impossible
        return acc

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx == other.ctx and self.bits == other.bits

    def __hash__(self):
        return hash((FieldElement, self.ctx.modulus.bits, self.bits))

    def __bool__(self):
        return bool(self.bits)

    def __repr__(self):
        return f"FieldElement({self.ctx.modulus.to_bitstring()}, {Gf2Poly(self.bits).to_bitstring()})"


def cyclotomic_coset(n: int, modulus_order: int) -> list[int]:
    """Orbit {n * 2^j mod modulus_order}, listed from n by doubling.

    modulus_order must be 2^r - 1 for some r >= 1.
    """
    if modulus_order < 1 or (modulus_order & (modulus_order + 1)) != 0:
        raise ValueError("modulus order must be 2^r - 1 for some r >= 1")
    if not 0 <= n < modulus_order:
        raise ValueError("exponent must satisfy 0 <= n < modulus order")
    out = [n]
    e = (2 * n) % modulus_order
    while e != n:
        out.append(e)
        e = (2 * e) % modulus_order
    return out


def minimal_polynomial_of_power(p2: Gf2Poly, n: int) -> Gf2Poly:
    """Minimal polynomial of alpha^n, alpha a root of the primitive p2.

    The product of (x + alpha^e) over the cyclotomic coset of n has all
    coefficients in GF(2); it is irreducible of degree |coset|.  Any
    n >= 0 is accepted and reduced modulo the group order.
    """
    if not is_primitive(p2):
        raise ValueError(f"{p2} is not primitive")
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    ctx = FieldContext(p2)
    coset = cyclotomic_coset(n % ctx.order, ctx.order)
    alpha = ctx.alpha()
    # Coefficient list of the growing product, ascending, over the field.
    coeffs = [ctx.one()]
    for e in coset:
        root = alpha ** e
        nxt = [ctx.zero()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += c * root
        coeffs = nxt
    if any(c.bits > 1 for c in coeffs):
        raise RuntimeError("conjugate product left GF(2)")  # impossible
    result = Gf2Poly.from_coeffs(c.bits for c in coeffs)
    if result.degree != len(coset) or not is_irreducible(result):
        raise RuntimeError("conjugate product is not a minimal polynomial")
    return result


def evaluate_solution(
    ctx: FieldContext, multiplicity: int, coeffs: Sequence["FieldElement"], n: int
) -> int:
    """Bit n of the recurrence solution determined by the coefficients.

    The solution family for a characteristic polynomial P^p is indexed by
    p field elements A_0..A_(p-1); term n is the conjugate (trace) sum of
    binom(n, m) A_m alpha^n over m, with binomial parity by bit-mask
    containment, so the result is a single bit.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    if len(coeffs) != multiplicity:
        raise ValueError(
            f"expected {multiplicity} coefficients, got {len(coeffs)}"
        )
    if n < 0:
        raise ValueError("time index must be nonnegative")
    acc = ctx.zero()
    for m, a in enumerate(coeffs):
        if a.ctx != ctx:
            raise ValueError("coefficient from a different field context")
        if (n & m) == m:  # binom(n, m) odd
            acc += a
    if not acc:
        return 0
    return (acc * ctx.alpha() ** n).trace()
