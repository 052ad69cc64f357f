"""Independent GF(2) arithmetic for making benchmark inputs and checking outputs.

Nothing here imports shrinkca.  Polynomials are ints with bit i holding
the coefficient of x^i, as in the package, but every routine is written
afresh and by a different method where one exists: primitivity is the
order of x, minimal polynomials come from a linear dependency among
powers, and the keystream is generated literally (run each register
until its state repeats, then filter).
"""

from __future__ import annotations

import random


def clmul(a: int, b: int) -> int:
    """Carry-less product of two coefficient masks."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def clmod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def powmod(a: int, e: int, m: int) -> int:
    acc, a = 1, clmod(a, m)
    while e:
        if e & 1:
            acc = clmod(clmul(acc, a), m)
        a = clmod(clmul(a, a), m)
        e >>= 1
    return clmod(acc, m)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive(p: int) -> bool:
    """True iff x has order exactly 2^r - 1 modulo p (r = degree >= 1).

    That order forces p to be irreducible: x^(2^r - 1) - 1 is squarefree,
    and a product of smaller factors bounds the order below 2^r - 1.
    """
    r = p.bit_length() - 1
    if r < 1 or not p & 1:
        return False
    order = (1 << r) - 1
    if powmod(2, order, p) != 1:
        return False
    return all(powmod(2, order // q, p) != 1 for q in _prime_factors(order))


def random_primitive(rng: random.Random, r: int) -> int:
    while True:
        p = (1 << r) | 1 | (rng.getrandbits(r - 1) << 1 if r > 1 else 0)
        if is_primitive(p):
            return p


def random_seed(rng: random.Random, r: int) -> list[int]:
    while True:
        bits = [rng.getrandbits(1) for _ in range(r)]
        if any(bits):
            return bits


def minimal_polynomial(p2: int, n: int) -> int:
    """Minimal polynomial of alpha^n, alpha = x mod p2.

    The first power beta^k that is a GF(2) combination of beta^0..beta^(k-1)
    gives the polynomial; elimination tracks which powers were combined.
    """
    beta = powmod(2, n, p2)
    basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, combination)
    power = 1
    for k in range(p2.bit_length()):
        vec, combo = power, 1 << k
        while vec:
            top = vec.bit_length() - 1
            if top not in basis:
                basis[top] = (vec, combo)
                break
            bvec, bcombo = basis[top]
            vec, combo = vec ^ bvec, combo ^ bcombo
        else:
            return combo
        power = clmod(clmul(power, beta), p2)
    raise AssertionError("powers of a field element must become dependent")


def poly_pow2k(p: int, k: int) -> int:
    """p ** (2 ** k) by repeated carry-less squaring."""
    for _ in range(k):
        p = clmul(p, p)
    return p


def continuant(rules: str) -> int:
    """det(xI + M) of the tridiagonal 90/150 matrix, by cofactor expansion
    along the last row: D_k = (x + d_k) D_(k-1) + D_(k-2)."""
    prev, cur = 0, 1
    for d in rules:
        prev, cur = cur, clmul(cur, 0b10 | (d == "1")) ^ prev
    return cur


def register_period(poly: int, seed: list[int]) -> list[int]:
    """One full period of a Fibonacci register, found by running it until
    its state (the last r output bits) equals the seed again."""
    r = poly.bit_length() - 1
    taps = [j for j in range(r) if poly >> j & 1]
    out = list(seed)
    k = 0
    while True:
        v = 0
        for j in taps:
            v ^= out[k + j]
        out.append(v)
        k += 1
        if out[k:k + r] == seed:
            return out[:k]


def keystream(p1: int, s1: list[int], p2: int, s2: list[int], n: int) -> list[int]:
    """First n bits kept by the literal generate-then-filter rule."""
    c = register_period(p1, s1)
    d = register_period(p2, s2)
    t1, t2 = len(c), len(d)
    out = []
    i = 0
    while len(out) < n:
        if c[i % t1]:
            out.append(d[i % t2])
        i += 1
    return out


def ca_cell_stream(rules: str, state: str, cell: int, n: int) -> list[int]:
    """n outputs of one cell of a null-boundary 90/150 automaton.

    `state` lists cells left to right; each step XORs both neighbours and,
    for rule 150, the cell itself."""
    width = len(rules)
    mask = (1 << width) - 1
    m150 = sum(1 << i for i, d in enumerate(rules) if d == "1")
    s = sum(1 << i for i, b in enumerate(state) if b == "1")
    out = []
    for _ in range(n):
        out.append(s >> cell & 1)
        s = ((s << 1) ^ (s >> 1) ^ (s & m150)) & mask
    return out


def bitstring(p: int) -> str:
    """Ascending coefficient string, the package's wire form."""
    return "".join("1" if p >> i & 1 else "0" for i in range(p.bit_length()))


def parse_bitstring(text: str) -> int:
    return sum(1 << i for i, c in enumerate(text) if c == "1")
