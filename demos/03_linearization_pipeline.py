"""Walk the linearization pipeline one stage at a time.

Given only the control length and the data polynomial, the pipeline
derives the keystream's base polynomial (the minimal polynomial of a
power of a data-polynomial root), finds the two automata realizing it,
and doubles them until their characteristic polynomial is the right
power.
"""

from shrinkca import (
    Gf2Poly,
    ca_char_poly,
    concat_double,
    cyclotomic_coset,
    linearize_shrinking_generator,
    minimal_polynomial_of_power,
    synthesize_ca_pair,
)

l1 = 3
p2 = Gf2Poly.parse("111011")  # 1 + x + x^2 + x^4 + x^5, primitive

# Stage 1: the keystream decimates the data stream at stride 2^l1 - 1 = 7,
# so its base polynomial is the minimal polynomial of alpha^7.
order = (1 << p2.degree) - 1
n = (1 << l1) - 1
print("exponent:", n, "conjugate set:", cyclotomic_coset(n, order))
base = minimal_polynomial_of_power(p2, n)
print("base polynomial:", base.to_terms())

# Stage 2: exactly two mutually-reversed automata share that polynomial.
pair = synthesize_ca_pair(base)
print("automaton pair: ", *[str(v) for v in pair])

# Stage 3: doubling (flip the last rule, append the mirror) squares the
# characteristic polynomial; l1 - 1 rounds reach the keystream power.
for v in pair:
    chain = [v]
    for _ in range(l1 - 1):
        chain.append(concat_double(chain[-1]))
    print(" -> ".join(str(c) for c in chain))
    print("    final characteristic polynomial:", ca_char_poly(chain[-1]).to_terms())

# The packaged call does all three stages.
result = linearize_shrinking_generator(l1, p2)
print("packaged result:", result.to_dict())
