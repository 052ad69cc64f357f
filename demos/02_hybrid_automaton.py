"""Step a hybrid 90/150 automaton and read its output sequences.

Each cell updates from its neighbours (rule 90 XORs the two neighbours,
rule 150 also XORs the cell itself) with always-zero cells beyond both
ends.  Rows printed top to bottom are the state orbit; columns read
downwards are the per-cell output sequences.
"""

from shrinkca import (
    RuleVector,
    ca_char_poly,
    ca_run,
    cell_output,
    sequence_period,
    state_from_bits,
    state_to_bits,
)

rules = RuleVector.parse("0111001110")
start = state_from_bits([0, 0, 0, 1, 1, 1, 0, 1, 1, 0])

print("rules:", "".join("150" if d else " 90" for d in rules.delta))
states = ca_run(rules, start, 8)
for t, s in enumerate(states):
    print(f"t={t}:  ", " ".join(str(b) for b in state_to_bits(s, len(rules))))

# The whole orbit closes after 62 steps, and every cell's column repeats
# with that same period.
orbit = ca_run(rules, start, 3 * 62)
print("orbit returns to start at t =", orbit.index(start, 1))
print("cell-sequence periods:", [
    sequence_period(cell_output(orbit, cell)) for cell in range(len(rules))
])

# One step is the product with a tridiagonal 0/1 matrix M.  M is
# symmetric, so row i is M e_i: one step from the single-cell state.
# Its characteristic polynomial is an irreducible square.
print("transition matrix:")
for i in range(len(rules)):
    row = ca_run(rules, 1 << i, 1)[1]
    print(" ", " ".join(str(b) for b in state_to_bits(row, len(rules))))
poly = ca_char_poly(rules)
print("characteristic polynomial:", poly.to_terms())
base = ca_char_poly(RuleVector.parse("01111"))
print("which is the square of:   ", base.to_terms(), "->", (base * base) == poly)
