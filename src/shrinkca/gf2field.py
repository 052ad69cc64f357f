"""GF(2^r) on plain int residues: cosets and minimal polynomials of powers.

A field element is a residue mask modulo an irreducible polynomial of
degree r (bit i = coefficient of x^i, value below 2^r); alpha is the
residue of x, a generator whenever the modulus is primitive.  The
keystream decimates the data stream at stride 2^L1 - 1, so its base
polynomial is the minimal polynomial of alpha^(2^L1 - 1): the first
linear dependency among the powers of that element.
"""

from __future__ import annotations

from .gf2poly import X, Gf2Poly, _divmod_bits, _mul_bits
from .gf2poly import is_irreducible, is_primitive, poly_powmod

__all__ = ["cyclotomic_coset", "minimal_polynomial_of_power"]


def _mulmod(a: int, b: int, m: int) -> int:
    return _divmod_bits(_mul_bits(a, b), m)[1]


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

    Reduces beta^0, beta^1, ... (beta = alpha^n) against the residues of
    the lower powers, tracking which powers each pivot combines; the
    first power that reduces to zero closes the minimal polynomial,
    irreducible of degree |cyclotomic coset of n|.  Any n >= 0 is
    accepted and reduced modulo the group order.
    """
    if not is_primitive(p2):
        raise ValueError(f"data polynomial {p2} must be primitive")
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    beta = poly_powmod(X, n, p2).bits
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (residue, powers)
    power, k = 1, 0
    while True:
        residue, powers = power, 1 << k
        while residue and residue.bit_length() in pivots:
            row, used = pivots[residue.bit_length()]
            residue, powers = residue ^ row, powers ^ used
        if not residue:
            break
        pivots[residue.bit_length()] = (residue, powers)
        power, k = _mulmod(power, beta, p2.bits), k + 1
    result = Gf2Poly(powers)
    order = (1 << p2.degree) - 1
    coset = cyclotomic_coset(n % order, order)
    if result.degree != len(coset) or not is_irreducible(result):
        raise RuntimeError("first dependency is not a minimal polynomial")
    return result
