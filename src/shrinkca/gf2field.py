"""GF(2^r) on plain int residues: cosets and minimal polynomials of powers.

A field element is a residue mask modulo an irreducible polynomial of
degree r (bit i = coefficient of x^i, value below 2^r); alpha is the
residue of x, a generator whenever the modulus is primitive.  The
keystream decimates the data stream at stride 2^L1 - 1, so its base
polynomial is the minimal polynomial of alpha^(2^L1 - 1): the shortest
recurrence of the data stream decimated at that stride.
"""

from .gf2poly import X, Gf2Poly, _mulmod, _shortest_recurrence
from .gf2poly import is_irreducible, is_primitive, poly_powmod

__all__ = ["cyclotomic_coset", "minimal_polynomial_of_power"]


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

    Bit k of the register stream seeded 10...0 is bit 0 of x^k mod p2,
    so its decimation at stride n is bit 0 of beta^k, beta = alpha^n: a
    nonzero stream whose shortest recurrence is the minimal polynomial
    of beta, irreducible of degree |cyclotomic coset of n| <= r.  By
    Massey's theorem its first 2r bits fix it.  Any n >= 0 is accepted
    and reduced modulo the group order.
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if not is_primitive(p2):
        raise ValueError(f"data polynomial {p2} must be primitive")
    beta, powers = poly_powmod(X, n, p2).bits, [1]  # beta^0 .. beta^(2r - 1)
    while len(powers) < 2 * p2.degree:
        powers.append(_mulmod(powers[-1], beta, p2.bits))
    result = Gf2Poly(_shortest_recurrence(bytes(p & 1 for p in powers))[0])
    order = (1 << p2.degree) - 1
    coset = cyclotomic_coset(n % order, order)
    if result.degree != len(coset) or not is_irreducible(result):
        raise RuntimeError("shortest recurrence is not a minimal polynomial")
    return result
