"""End-to-end: replace a nonlinear generator with a linear automaton.

The verdict routine synthesizes the automaton pair from (control length,
data polynomial) alone, measures the keystream, and then exhibits a cell
plus initial state that replays it bit for bit over a full period.
A keystream that a linear machine replays exactly offers no nonlinear
protection.
"""

from shrinkca import (
    Gf2Poly,
    Lfsr,
    ShrinkingGenerator,
    ca_run,
    cell_output,
    format_bits,
    verify_linearization,
)

for p2_text, seed2 in (("11001", [1, 0, 0, 0]), ("111011", [1, 0, 0, 0, 0])):
    gen = ShrinkingGenerator(
        Lfsr(Gf2Poly.parse("1011"), [1, 0, 0]),
        Lfsr(Gf2Poly.parse(p2_text), seed2),
    )
    report = verify_linearization(gen)
    print(report.to_text())

    # Replay the keystream from the fitted cell and compare directly.
    window = gen.shrunken_sequence(report.window_length)
    states = ca_run(report.matched_rules, report.initial_state, len(window) - 1)
    replay = cell_output(states, report.matched_cell)
    print("replay matches keystream:", bytes(replay) == window)
    print("keystream:", format_bits(window[:40]), "...")
    print("replay:   ", format_bits(replay[:40]), "...")
    print()

# The control polynomial never enters the construction: any control
# register of the same length yields the same pair of automata.
alt = ShrinkingGenerator(
    Lfsr(Gf2Poly.parse("1101"), [0, 1, 1]),
    Lfsr(Gf2Poly.parse("11001"), [1, 0, 0, 0]),
)
same = verify_linearization(alt).linearization == verify_linearization(
    ShrinkingGenerator(
        Lfsr(Gf2Poly.parse("1011"), [1, 0, 0]),
        Lfsr(Gf2Poly.parse("11001"), [1, 0, 0, 0]),
    )
).linearization
print("same automata for a different control polynomial:", same)
