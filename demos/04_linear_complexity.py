"""Measure keystreams: linear complexity, recurrences, annihilators.

Berlekamp-Massey recovers the shortest recurrence a window satisfies.
For a bare register that recurrence is just its characteristic
polynomial; for a shrinking generator's keystream it is a power of the
base polynomial, and its degree lands in a narrow predicted bracket.
"""

from shrinkca import (
    Gf2Poly,
    Lfsr,
    ShrinkingGenerator,
    berlekamp_massey,
    check_annihilation,
    lc_bounds,
    minimal_polynomial_of_power,
)

data_poly = Gf2Poly.parse("11001")
register = Lfsr(data_poly, [1, 0, 0, 0])

m = berlekamp_massey(register.sequence(30))
print("register window:  LC =", m.linear_complexity, " poly =", m.connection_poly)

gen = ShrinkingGenerator(Lfsr(Gf2Poly.parse("1011"), [1, 0, 0]), register)
window = gen.shrunken_sequence(120)
m = berlekamp_massey(window)
print("keystream window: LC =", m.linear_complexity, " poly =", m.connection_poly)

lo, hi = lc_bounds(3, 4)
print(f"predicted bracket: {lo} < LC <= {hi}")

# The measured polynomial is the 4th power of the minimal polynomial of
# alpha^7 -- nonlinear decimation left a perfectly linear fingerprint.
base = minimal_polynomial_of_power(data_poly, 7)
print("base polynomial:", base, " base^4 == measured:", base**4 == m.connection_poly)

# Annihilation, checked directly: sliding the expanded operator mask
# across the window leaves nothing behind.
print("base^4 annihilates keystream:", check_annihilation(base, 4, window))
print("base^1 annihilates keystream:", check_annihilation(base, 1, window))

# One flipped bit breaks the recurrence everywhere near it.
flipped = bytearray(window)
flipped[40] ^= 1
print("after one bit flip:          ", check_annihilation(base, 4, flipped))
