"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same names; README.md in
this directory says which end-to-end metric each layer metric should
move, and on which workload.
"""

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "op_s.p50": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed for readers but left out of the result line, because on some
# workload they are 0 or undefined: fail_ratio is 0 whenever the run is
# correct (the result line carries it as failed/attempted), op_s.tail
# needs at least 11 ops, and window_bits_per_s needs a keystream.
REPORTED_ONLY = {
    "op_s.tail": "s",
    "window_bits_per_s": "bit/s",
    "fail_ratio": "ratio",
}

PER_LAYER = {
    "generators.shrunken_sequence.s": ("s", "lower"),
    "generators.keystream_bits_per_s": ("bit/s", "higher"),
    "generators.window_bits": ("count", "lower"),
    "generators.shrunken_sequence.peak_alloc_mb": ("MB", "lower"),
    "analysis.berlekamp_massey.s": ("s", "lower"),
    "analysis.bm_bits_per_s": ("bit/s", "higher"),
    "analysis.linear_complexity": ("count", "lower"),
    "analysis.measured_multiplicity": ("count", "lower"),
    "analysis.check_annihilation.s": ("s", "lower"),
    "analysis.verify_linearization.self_s": ("s", "lower"),
    "automata.fit_initial_state.s": ("s", "lower"),
    "automata.fit_initial_state.peak_alloc_mb": ("MB", "lower"),
    "automata.ca_run.steps_per_s": ("step/s", "higher"),
    "linearizer.synthesize_ca_pair.s": ("s", "lower"),
    "linearizer.synthesize_ca_pair.candidates_computed": ("count", "lower"),
    "linearizer.linearize_shrinking_generator.s": ("s", "lower"),
    "linearizer.linearize_shrinking_generator.self_s": ("s", "lower"),
    "linearizer.concat_double.s": ("s", "lower"),
    "linearizer.cells": ("count", "lower"),
    "gf2field.minimal_polynomial_of_power.s": ("s", "lower"),
    "gf2field.base_degree": ("count", "lower"),
    "gf2poly.is_primitive.s": ("s", "lower"),
    "gf2poly.is_primitive.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("count", "lower"),
    "layer.gf2poly.self_s": ("s", "lower"),
    "layer.gf2field.self_s": ("s", "lower"),
    "layer.generators.self_s": ("s", "lower"),
    "layer.automata.self_s": ("s", "lower"),
    "layer.linearizer.self_s": ("s", "lower"),
    "layer.analysis.self_s": ("s", "lower"),
    "layer.cli.self_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Exact counts: totals over a workload's first cycle of ops, identical on
# every run with the same seed.
COUNTS = (
    "generators.window_bits",
    "analysis.linear_complexity",
    "analysis.measured_multiplicity",
    "linearizer.cells",
    "linearizer.synthesize_ca_pair.candidates_computed",
    "gf2field.base_degree",
    "gf2poly.is_primitive.calls",
    "cli.stdout_bytes",
)
