"""Linearize shrinking-generator keystreams with 90/150 cellular automata.

The package simulates the nonlinear generator, synthesizes the pair of
hybrid linear automata that share its keystream algebra, and verifies
bit-exactly that one automaton cell replays the keystream.
"""

from .analysis import (
    MAX_WINDOW_BITS,
    AttackReport,
    BmResult,
    berlekamp_massey,
    check_annihilation,
    lc_bounds,
    verify_linearization,
)
from .automata import (
    RuleVector,
    ca_char_poly,
    ca_run,
    ca_step,
    cell_output,
    fit_initial_state,
    state_from_bits,
    state_to_bits,
)
from .generators import (
    Lfsr,
    ShrinkingGenerator,
    decimate_by_stride,
    format_bits,
    parse_bits,
    sequence_period,
)
from .gf2field import (
    cyclotomic_coset,
    evaluate_solution,
    minimal_polynomial_of_power,
)
from .gf2poly import (
    ONE,
    X,
    ZERO,
    Gf2Poly,
    is_irreducible,
    is_primitive,
    poly_gcd,
    poly_powmod,
)
from .linearizer import (
    MAX_CELLS,
    LinearizationResult,
    concat_double,
    linearize_shrinking_generator,
    synthesize_ca_pair,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_CELLS",
    "MAX_WINDOW_BITS",
    "AttackReport",
    "BmResult",
    "Gf2Poly",
    "Lfsr",
    "LinearizationResult",
    "ONE",
    "RuleVector",
    "ShrinkingGenerator",
    "X",
    "ZERO",
    "berlekamp_massey",
    "ca_char_poly",
    "ca_run",
    "ca_step",
    "cell_output",
    "check_annihilation",
    "concat_double",
    "cyclotomic_coset",
    "decimate_by_stride",
    "evaluate_solution",
    "fit_initial_state",
    "format_bits",
    "is_irreducible",
    "is_primitive",
    "lc_bounds",
    "linearize_shrinking_generator",
    "minimal_polynomial_of_power",
    "parse_bits",
    "poly_gcd",
    "poly_powmod",
    "sequence_period",
    "state_from_bits",
    "state_to_bits",
    "synthesize_ca_pair",
    "verify_linearization",
]
