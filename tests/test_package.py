"""The package's public surface: the union of its layers' ``__all__``,
and the standard-library modules importing it pulls in."""

import conftest as cf
import shrinkca
from shrinkca import analysis, automata, generators, gf2field, gf2poly, linearizer

PUBLIC = {
    "AttackReport", "BmResult", "Gf2Poly", "Lfsr", "LinearizationResult",
    "MAX_CELLS", "MAX_WINDOW_BITS", "ONE", "RuleVector", "ShrinkingGenerator",
    "X", "ZERO", "berlekamp_massey", "ca_char_poly", "ca_run", "cell_output",
    "check_annihilation", "concat_double", "cyclotomic_coset",
    "fit_initial_state", "format_bits", "is_irreducible", "is_primitive",
    "lc_bounds", "linearize_shrinking_generator", "minimal_polynomial_of_power",
    "parse_bits", "poly_gcd", "poly_powmod", "sequence_period",
    "state_from_bits", "state_to_bits", "synthesize_ca_pair",
    "verify_linearization",
}
LAYERS = (gf2poly, gf2field, generators, automata, linearizer, analysis)


def test_public_names_are_unchanged():
    assert set(shrinkca.__all__) == PUBLIC
    assert len(shrinkca.__all__) == len(PUBLIC)  # each declared once


def test_each_name_is_its_defining_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(shrinkca, name) is getattr(layer, name), name


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # `dataclasses` imports `inspect`, which costs more than the whole package.
    code = "import shrinkca.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    assert cf.bare_python(code) == "[]\n"


def test_cli_import_leaves_out_json_and_the_package_leaves_out_re():
    # Only `--format json` output loads `json`.  No module of the package
    # imports `re`; `typing`, which the records' NamedTuple needs, imports
    # it on its own, so it is dropped again after `typing` has loaded.
    assert cf.bare_python("import shrinkca.cli\nprint('json' in sys.modules)\n") == "False\n"
    code = (
        "import typing\n"
        "sys.modules.pop('re', None)\n"
        "import shrinkca\n"
        "print('re' in sys.modules)\n"
    )
    assert cf.bare_python(code) == "False\n"
