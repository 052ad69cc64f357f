"""Shared golden vectors and independent oracles for the test suite.

The oracles deliberately avoid the library's fast paths: list-based long
division, trial-division factor search, exact integer characteristic
polynomials of nested-list transition matrices, linear-system
recurrence search, a bit-by-bit register and a literal
generate-then-filter keystream, Berlekamp-Massey over a full-window
history register, a bit-by-bit annihilation scan, minimal
polynomials by exhaustive Horner evaluation, the text formats by the
regular expressions that defined them, the paper's explicit
binomial-trace solutions of a recurrence, initial-state fits by
Gaussian elimination over every cell's observation equations and by a
sweep of whole-window columns across the cells, doubling on per-cell
tuples, and automaton synthesis by stepping the continuant recurrence
afresh for every rule vector and by a walk over the whole rule tree
that collects every match.  Tests compare the production code
against these slower routes.
"""

from __future__ import annotations

import functools
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import shrinkca.analysis
import shrinkca.gf2field
import shrinkca.linearizer

from shrinkca import (
    MAX_WINDOW_BITS,
    Gf2Poly,
    Lfsr,
    RuleVector,
    ShrinkingGenerator,
    X,
    ca_run,
    cell_output,
    is_irreducible,
    is_primitive,
    poly_powmod,
)

# --- golden vectors (hand-checked reference data) -------------------------

R1_POLY = "1011"  # 1 + x^2 + x^3
R1_SEED = "100"
R1_STREAM = "1001110"

R2A_POLY = "11001"  # 1 + x + x^4
R2A_SEED = "1000"
R2A_STREAM = "100010011010111"

KEYSTREAM_A_13 = "1010110110010"  # first 13 kept bits of generator A

R2B_POLY = "111011"  # 1 + x + x^2 + x^4 + x^5
R2B_SEED = "10000"

BASE5 = "101001"  # 1 + x^2 + x^5
PAIR5 = ("01111", "11110")
PAIR5_DOUBLED = ("0111001110", "1111111111")
PAIR20 = ("01110011111111001110", "11111111100111111111")

# 1 + x + x^3 + x^4 + x^5 + x^13 + x^14 + x^21 + x^22, primitive: its first
# rule vector in wire order lies at 0.938 of the 2^22-mask tree, the latest
# of 100 primitives drawn by random.Random(22), so the synthesis walk steps
# nearly the whole tree at the top of the search degree.
LATE_PRIMITIVE_22 = "11011100000001100000011"

ORBIT_RULES = "0111001110"
ORBIT_ROWS = [
    "0001110110",
    "0010010001",
    "0111101010",
    "1011101011",
    "0001101001",
    "0010101110",
]
ORBIT_PERIOD = 62


def make_lfsr(poly: str, seed: str) -> Lfsr:
    return Lfsr(Gf2Poly.parse(poly), [int(c) for c in seed])


def gen_a() -> ShrinkingGenerator:
    """Reference generator A: control degree 3, data degree 4, period 60."""
    return ShrinkingGenerator(make_lfsr(R1_POLY, R1_SEED), make_lfsr(R2A_POLY, R2A_SEED))


def gen_b() -> ShrinkingGenerator:
    """Reference generator B: control degree 3, data degree 5, period 124."""
    return ShrinkingGenerator(make_lfsr(R1_POLY, R1_SEED), make_lfsr(R2B_POLY, R2B_SEED))


# --- independent oracles ---------------------------------------------------


def long_division_lists(a: Gf2Poly, m: Gf2Poly) -> tuple[Gf2Poly, Gf2Poly]:
    """Schoolbook polynomial division on coefficient lists."""
    if not m:
        raise ZeroDivisionError
    ac = [(a.bits >> i) & 1 for i in range(max(a.degree + 1, 1))]
    dm = m.degree
    q = [0] * max(len(ac) - dm, 1)
    for k in range(len(ac) - 1, dm - 1, -1):
        if ac[k]:
            q[k - dm] = 1
            for i in range(dm + 1):
                ac[k - dm + i] ^= (m.bits >> i) & 1
    return Gf2Poly.from_coeffs(q), Gf2Poly.from_coeffs(ac)


def trial_division_irreducible(p: Gf2Poly) -> bool:
    """Factor search over every candidate divisor of degree <= deg/2."""
    r = p.degree
    assert r >= 1
    for bits in range(2, 1 << (r // 2 + 1)):
        d = Gf2Poly(bits)
        if d.degree >= 1 and not (p % d):
            return False
    return True


def brute_min_recurrence(window: list[int]) -> tuple[int, Gf2Poly | None]:
    """Smallest recurrence length generating the window, by linear solving.

    Returns (lc, charpoly); the polynomial is None when the window is too
    short to pin it down uniquely (shorter than twice the complexity).
    """
    n = len(window)
    for lc in range(n + 1):
        if lc == 0:
            if all(b == 0 for b in window):
                return 0, Gf2Poly(1)
            continue
        rows = []
        for k in range(lc, n):
            mask = 0
            for i in range(1, lc + 1):
                mask |= window[k - i] << (i - 1)
            rows.append(mask | (window[k] << lc))
        basis: dict[int, int] = {}
        ok = True
        free = lc
        for row in rows:
            cur = row
            while True:
                low = cur & ((1 << lc) - 1)
                if low == 0:
                    ok = cur >> lc == 0
                    break
                col = (low & -low).bit_length() - 1
                if col in basis:
                    cur ^= basis[col]
                else:
                    basis[col] = cur
                    free -= 1
                    break
            if not ok:
                break
        if not ok:
            continue
        taps = 0
        for col in sorted(basis, reverse=True):
            row = basis[col]
            val = (row >> lc) ^ ((row & ((1 << lc) - 1) & taps).bit_count() & 1)
            if val & 1:
                taps |= 1 << col
        if n < 2 * lc or free:
            return lc, None
        # charpoly x^lc + sum c_i x^(lc - i), tap bit i-1 = c_i
        poly = 1 << lc
        for i in range(1, lc + 1):
            if (taps >> (i - 1)) & 1:
                poly |= 1 << (lc - i)
        return lc, Gf2Poly(poly)
    raise AssertionError("unreachable: lc = n always consistent")


def transition_matrix(rules: RuleVector) -> list[list[int]]:
    """Tridiagonal 0/1 matrix M with M[i][i] = delta_i and ones beside it.

    One automaton step is the matrix-vector product over GF(2).
    """
    L = len(rules)
    m = [[0] * L for _ in range(L)]
    for i, d in enumerate(rules.delta):
        m[i][i] = d
        if i + 1 < L:
            m[i][i + 1] = m[i + 1][i] = 1
    return m


def mat_vec_mod2(m: list[list[int]], vec: list[int]) -> list[int]:
    """Row-by-row dot products over GF(2)."""
    return [sum(a & b for a, b in zip(row, vec)) % 2 for row in m]


def exact_char_poly_mod2(rules: RuleVector) -> Gf2Poly:
    """det(xI - M) over the integers (sympy), reduced mod 2."""
    m = sympy.Matrix(transition_matrix(rules))
    coeffs = m.charpoly().all_coeffs()  # descending, exact ints
    return Gf2Poly.from_coeffs([int(c) % 2 for c in reversed(coeffs)])


@functools.lru_cache(maxsize=None)
def char_poly_of_every_mask(r: int) -> tuple[int, ...]:
    """Characteristic polynomial bits of every mask of r rules (bit i-1
    is d_i), each stepped through P_k = (x + d_k) P_(k-1) + P_(k-2) from
    P_0 = 1, P_1 = x + d_1 on its own."""
    table = []
    for m in range(1 << r):
        prev, cur = 1, 2 + (m & 1)
        for k in range(1, r):
            d = (m >> k) & 1
            prev, cur = cur, (cur << 1) ^ (d * cur) ^ prev
        table.append(cur)
    return tuple(table)


def exhaustive_rule_masks(target: int, r: int) -> list[int]:
    """Every mask of r rules whose characteristic polynomial has bits
    `target`, each of the 2^r masks stepped through all r continuants
    on its own (cached per r, so one pass serves every target)."""
    return [m for m, bits in enumerate(char_poly_of_every_mask(r)) if bits == target]


def _walk(target: int, last: int, prev: int, cur: int, mask: int, bit: int):
    """Masks under the node (P_(k-1), P_k) = (prev, cur), d_1..d_k in `mask`,
    `bit` = 1 << k, whose continuant at bit `last` is target: the d = 0
    child before the d = 1 child, so in wire order."""
    up = (cur << 1) ^ prev  # x * P_k + P_(k-1); d_(k+1) = 1 adds P_k
    if bit == last:
        return (mask,) if target == up else (mask | bit,) if target == up ^ cur else ()
    return _walk(target, last, cur, up, mask, bit << 1) + _walk(
        target, last, cur, up ^ cur, mask | bit, bit << 1
    )


def walk_rule_masks(target: int, r: int) -> tuple[int, ...]:
    """Every mask of r >= 1 rules (bit i-1 is d_i) whose continuant P_r is
    target, reducible targets included, in wire order: a depth-first walk
    over the whole tree of 2^r masks that steps shared prefixes once and
    solves the last rule."""
    return _walk(target, 1 << (r - 1), 0, 1, 0, 1)


def elimination_fit(rules: RuleVector, target) -> tuple[int, int] | None:
    """(cell, state) whose cell output reproduces the target, or None.

    For each cell in ascending order, eliminates its 2L observation
    equations (row n is e_cell M^n, stepped like a state since M is
    symmetric), zeroes the free variables, and replays the candidate
    over the whole target.
    """
    L = len(rules)
    if len(target) < 2 * L:
        raise ValueError(f"target must supply at least {2 * L} bits")
    mask_all = (1 << L) - 1
    for cell in range(L):
        basis: dict[int, int] = {}
        consistent = True
        for n, row in enumerate(ca_run(rules, 1 << cell, 2 * L - 1)):
            cur = row | ((target[n] & 1) << L)
            while True:
                low = cur & mask_all
                if low == 0:
                    consistent = cur >> L == 0
                    break
                col = (low & -low).bit_length() - 1
                if col in basis:
                    cur ^= basis[col]
                else:
                    basis[col] = cur
                    break
            if not consistent:
                break
        if not consistent:
            continue
        state = 0
        for col in sorted(basis, reverse=True):
            row = basis[col]
            val = (row >> L) ^ ((row & mask_all & state).bit_count() & 1)
            if val & 1:
                state |= 1 << col
        produced = cell_output(ca_run(rules, state, len(target) - 1), cell)
        if produced == list(target):
            return cell, state
    return None


def column_fit(rules: RuleVector, target) -> tuple[int, int] | None:
    """(0, state) replaying the target from cell 1, or None, by columns.

    The rule solved for the right neighbour, x_(k+1)(t) = x_k(t+1) +
    d_k x_k(t) + x_(k-1)(t), carries the whole target across the cells on
    one n-bit int: cell k+1 is fixed at times 0..n-1-k.  The state is the
    time-0 column, and it replays the target iff the implied cell L+1,
    the null boundary, is zero wherever it is fixed.
    """
    L, n = len(rules), len(target)
    if n < 2 * L:
        raise ValueError(f"target must supply at least {2 * L} bits")
    mask150, mask_all = rules.mask150, (1 << n) - 1
    # Bit n-1-t of cur is cell k+1 at time t, of prev cell k.
    prev, cur, state = 0, int("".join(map(str, target)), 2), 0
    for k in range(L):
        state |= (cur >> (n - 1)) << k
        nxt = (cur << 1) ^ (cur if (mask150 >> k) & 1 else 0) ^ prev
        prev, cur = cur, nxt & mask_all
    return None if cur >> L else (0, state)


def tuple_double(rules: RuleVector) -> RuleVector:
    """Flip the last rule, append the mirror image, on per-cell tuples."""
    delta = tuple(rules.delta)
    head = delta[:-1] + (delta[-1] ^ 1,)
    return RuleVector(head + head[::-1])


def enumerated_exponents(mask: int) -> list[int]:
    """The set bits of a mask, ascending, one character of its text at a time."""
    return [i for i, c in enumerate(format(mask, "b")[::-1]) if c == "1"]


def literal_lfsr(reg: Lfsr, n: int) -> list[int]:
    """One output bit at a time from the recurrence a_k = sum a_(k-r+j)."""
    r = reg.length
    taps = [j for j in range(r) if reg.charpoly.coeff(j)]
    out = list(reg.state[:n])
    for k in range(r, n):
        v = 0
        for j in taps:
            v ^= out[k - r + j]
        out.append(v)
    return out


def brute_shrunken(gen: ShrinkingGenerator, n: int) -> list[int]:
    """Generate a big block of register pairs bit by bit and filter literally.

    A control register enters a cycle of at most 2**L1 states within
    2**L1 steps, so (n + 1) * 2**L1 pairs hold n kept bits unless that
    cycle has no ones; only then is the result shorter than n.
    """
    m = (n + 1) << gen.r1.length
    a = literal_lfsr(gen.r1, m)
    b = literal_lfsr(gen.r2, m)
    kept = [y for x, y in zip(a, b) if x == 1]
    return kept[:n]


def full_register_bm(seq) -> tuple[int, Gf2Poly]:
    """Berlekamp-Massey against a history register as long as the window:
    every step shifts the whole reversed window.  Returns (lc, charpoly)."""
    c, b = 1, 1
    lc, m = 0, -1
    rev = 0  # bit i = seq[n - i]
    for n, s in enumerate(seq):
        rev = (rev << 1) | s
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * lc <= n:
                lc, b, m = n + 1 - lc, t, n
    poly = 0
    for i in range(lc + 1):
        if (c >> i) & 1:
            poly |= 1 << (lc - i)
    return lc, Gf2Poly(poly)


def loop_annihilation(q: Gf2Poly, multiplicity: int, seq) -> bool:
    """Pack the window bit by bit, then test every position in turn."""
    mask_poly = q**multiplicity
    span = mask_poly.degree
    packed = 0
    for i, s in enumerate(seq):
        packed |= (s & 1) << i
    for n in range(len(seq) - span):
        if (mask_poly.bits & (packed >> n)).bit_count() & 1:
            return False
    return True


BITSTRING = re.compile(r"[01]+")
TERM = re.compile(r"1|x(\^[0-9]+)?")


def regex_read_bits(text: str, what: str = "bit string") -> bytes:
    """The 0/1 bytes of a bit text, checked by BITSTRING."""
    s = text.strip()
    if not BITSTRING.fullmatch(s):
        raise ValueError(f"not a {what}: {text!r}")
    return bytes(int(c) for c in s)


def regex_parse(text: str) -> Gf2Poly:
    """`Gf2Poly.parse`, with each text form checked by its regular expression."""
    s = text.strip()
    if BITSTRING.fullmatch(s):
        return Gf2Poly(sum(1 << i for i, c in enumerate(s) if c == "1"))
    s = "".join(s.split())
    if not s:
        raise ValueError("empty polynomial text")
    bits = 0
    for term in s.split("+"):
        if not TERM.fullmatch(term):
            raise ValueError(f"bad polynomial term {term!r}")
        k = 0 if term == "1" else 1 if term == "x" else int(term[2:])
        if k > MAX_WINDOW_BITS:
            raise ValueError(f"term exponent {k} is over {MAX_WINDOW_BITS}")
        bits ^= 1 << k
    return Gf2Poly(bits)


def smallest_annihilator_of_power(p2: Gf2Poly, n: int) -> Gf2Poly:
    """Smallest nonzero mask q with q(beta) = 0 mod p2, beta = x^n, by Horner.

    The minimal polynomial has the least degree of any annihilator and
    is the only one of that degree, so it is also the smallest mask.  It
    has constant term 1 (beta is nonzero), so only odd masks are tried.
    x has order 2^r - 1 modulo a primitive p2 of degree r, so n is
    reduced by that order before the power is formed.
    """
    beta = (X ** (n % ((1 << p2.degree) - 1))) % p2
    for bits in range(1, 1 << (p2.degree + 1), 2):
        acc = Gf2Poly(0)
        for i in range(bits.bit_length() - 1, -1, -1):
            acc = (acc * beta + Gf2Poly((bits >> i) & 1)) % p2
        if not acc:
            return Gf2Poly(bits)
    raise AssertionError("every element has a minimal polynomial of degree <= r")


def evaluate_solution(modulus: Gf2Poly, multiplicity: int, coeffs, n: int) -> int:
    """Bit n of the recurrence solution determined by the coefficients.

    The paper's explicit solutions: the family for a characteristic
    polynomial P^p (P = modulus, irreducible of degree r) is indexed by
    p residues A_0..A_(p-1) below 2^r; term n is the trace of
    sum binom(n, m) A_m alpha^n over m, with binomial parity by bit-mask
    containment, so the result is one bit.
    """
    if not is_irreducible(modulus):
        raise ValueError(f"modulus {modulus} is reducible")
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    if len(coeffs) != multiplicity:
        raise ValueError(f"expected {multiplicity} coefficients, got {len(coeffs)}")
    if n < 0:
        raise ValueError("time index must be nonnegative")
    acc = 0
    for m, a in enumerate(coeffs):
        if not isinstance(a, int) or not 0 <= a < 1 << modulus.degree:
            raise ValueError(f"coefficient {a!r} is not a residue mod {modulus}")
        if (n & m) == m:  # binom(n, m) odd
            acc ^= a
    cur = (Gf2Poly(acc) * poly_powmod(X, n, modulus)) % modulus
    trace = Gf2Poly(0)
    for _ in range(modulus.degree):
        trace += cur
        cur = (cur * cur) % modulus
    assert trace.bits in (0, 1), "the trace left the base field"
    return trace.bits


@pytest.fixture
def primitivity_calls(monkeypatch) -> list[Gf2Poly]:
    """Every polynomial the pipeline modules test for primitivity, in order."""
    calls: list[Gf2Poly] = []

    def counted(p: Gf2Poly) -> bool:
        calls.append(p)
        return is_primitive(p)

    # raising=False: a module that does not bind the test yet is covered too.
    for module in (shrinkca.analysis, shrinkca.gf2field, shrinkca.linearizer):
        monkeypatch.setattr(module, "is_primitive", counted, raising=False)
    return calls


def naive_period(seq) -> int:
    """Direct definition scan; quadratic, small windows only."""
    n = len(seq)
    for t in range(1, n + 1):
        if all(seq[i] == seq[i + t] for i in range(n - t)):
            return t
    raise AssertionError


def first_primitive(degree: int) -> Gf2Poly:
    """Smallest-mask primitive polynomial of the given degree."""
    for bits in range(1 << degree, 1 << (degree + 1)):
        p = Gf2Poly(bits)
        if is_primitive(p):
            return p
    raise AssertionError(f"no primitive polynomial of degree {degree}")


def bare_python(code: str, timeout: float = 60) -> str:
    """Run `code` in a bare interpreter (no site, warnings as errors) with
    this checkout's src first on sys.path, and return its stdout; a run
    over `timeout` seconds fails the test instead of hanging it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys\nsys.path.insert(0, {src!r})\n{code}"
    child = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", code],
        capture_output=True, text=True, timeout=timeout,
    )
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


def random_nonzero_seed(rng: random.Random, length: int) -> list[int]:
    value = rng.randrange(1, 1 << length)
    return [(value >> i) & 1 for i in range(length)]
