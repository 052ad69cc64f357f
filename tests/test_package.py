"""The package's public surface: the union of its layers' ``__all__``,
the standard-library modules importing it pulls in, what its calls
leave for the cyclic collector, and its values under copy and pickle."""

import ast
import copy
import gc
import hashlib
import pickle
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conftest as cf
import shrinkca
from shrinkca import analysis, automata, cli, generators, gf2field, gf2poly, linearizer

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


def test_each_layer_defines_the_names_it_declares():
    # The package exports the union of the layers' __all__, so a name a
    # layer imports and declares again would have two declaring layers.
    for layer in LAYERS + (cli,):
        defined = set()
        for node in ast.parse(Path(layer.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        assert set(layer.__all__) <= defined, (layer.__name__, set(layer.__all__) - defined)


def test_public_values_copy_and_pickle():
    # Every public value type survives copy.copy, copy.deepcopy and every
    # pickle protocol, rebuilt through its validating constructor as a twin
    # that compares and hashes equal, and the immutable ones stay immutable.
    gen = cf.gen_b()
    values = [
        shrinkca.Gf2Poly.parse(cf.R2B_POLY),
        shrinkca.RuleVector.parse(cf.ORBIT_RULES),
        gen.r1,
        gen,
        shrinkca.berlekamp_massey(gen.shrunken_sequence(124)),
        shrinkca.linearize_shrinking_generator(3, gen.r2.charpoly),
        shrinkca.verify_linearization(gen),
    ]
    assert {type(v).__name__ for v in values} == {
        "Gf2Poly", "RuleVector", "Lfsr", "ShrinkingGenerator",
        "BmResult", "LinearizationResult", "AttackReport",
    }
    rounds = [copy.copy, copy.deepcopy] + [
        lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for value in values:
        for round_trip in rounds:
            twin = round_trip(value)
            assert type(twin) is type(value) and repr(twin) == repr(value)
            assert twin == value and hash(twin) == hash(value)
    for value in values[:4]:
        twin = pickle.loads(pickle.dumps(value))
        message = f"^{type(value).__name__} is immutable$"
        with pytest.raises(AttributeError, match=message):
            twin.anything = 0
        with pytest.raises(AttributeError, match=message):
            delattr(twin, value.__slots__[0])


# sha256 prefixes of the pickles, at protocols 2 to 5, of the values that
# test_immutable_values_share_one_frozen_base builds.  Gf2Poly's, Lfsr's,
# ShrinkingGenerator's and BmResult's were taken when each class wrote out
# its own __setattr__ and __reduce__; RuleVector's, and so those of the two
# records that hold RuleVectors, when RuleVector took _Frozen and came to
# pickle as RuleVector.parse of its wire form.  Lfsr's, ShrinkingGenerator's
# and AttackReport's were taken again when a register's seed came to be held
# as 0/1 bytes, not a tuple of ints; they read the same on Python 3.10-3.13.
PICKLE_DIGESTS = {
    "Gf2Poly": ("048826c260563667", "f539d1ea9a675b2b", "632cbcb1522e78fc", "fc56746d1516c6d7"),
    "RuleVector": ("e35612c027d5a2c2", "c09e237b9e45538b", "8b547e2f57e6d377", "3f28f666af9a4140"),
    "Lfsr": ("5de025dedc314ab4", "81c7ae09c8f7f838", "5685b60334709be9", "6ece9c3f195f9dae"),
    "ShrinkingGenerator": (
        "973468b1869226b1", "903bf5fc11ad2046", "2811ea5db3f66a89", "3b517a9bcf853b43",
    ),
    "BmResult": ("a36d9ba4855177cd", "83e03026ced8f1ea", "85f3b7f864fca661", "877c5a9285b026ff"),
    "LinearizationResult": (
        "6670e2941aa119f7", "8351849118f06b98", "e914b20d87ebc182", "30725e4bd6d2a47d",
    ),
    "AttackReport": (
        "f0e37ed9354bb5c7", "22744bbc42cb4c1b", "d1def5fdc5848f1d", "ad8bfd52f4d444be",
    ),
}

# Generator B's control register and generator B pickled at protocols 2 and
# 5 while a seed was a tuple of ints: the same calls rebuild them with seeds
# of 0/1 bytes.
TUPLE_SEED_PICKLES = {
    "Lfsr": (
        b"\x80\x02cshrinkca.generators\nLfsr\nq\x00cshrinkca.gf2poly\nGf2Poly\nq\x01K\r\x85q"
        b"\x02Rq\x03K\x01K\x00K\x00\x87q\x04\x86q\x05Rq\x06.",
        b"\x80\x05\x95Q\x00\x00\x00\x00\x00\x00\x00\x8c\x13shrinkca.generators\x94\x8c\x04Lfsr"
        b"\x94\x93\x94\x8c\x10shrinkca.gf2poly\x94\x8c\x07Gf2Poly\x94\x93\x94K\r\x85\x94R\x94K"
        b"\x01K\x00K\x00\x87\x94\x86\x94R\x94.",
    ),
    "ShrinkingGenerator": (
        b"\x80\x02cshrinkca.generators\nShrinkingGenerator\nq\x00cshrinkca.generators\nLfsr"
        b"\nq\x01cshrinkca.gf2poly\nGf2Poly\nq\x02K\r\x85q\x03Rq\x04K\x01K\x00K\x00\x87q\x05"
        b"\x86q\x06Rq\x07h\x01h\x02K7\x85q\x08Rq\t(K\x01K\x00K\x00K\x00K\x00tq\n\x86q\x0bRq"
        b"\x0c\x86q\rRq\x0e.",
        b"\x80\x05\x95\x89\x00\x00\x00\x00\x00\x00\x00\x8c\x13shrinkca.generators\x94\x8c"
        b"\x12ShrinkingGenerator\x94\x93\x94h\x00\x8c\x04Lfsr\x94\x93\x94\x8c\x10shrinkca.gf2poly"
        b"\x94\x8c\x07Gf2Poly\x94\x93\x94K\r\x85\x94R\x94K\x01K\x00K\x00\x87\x94\x86\x94R"
        b"\x94h\x04h\x07K7\x85\x94R\x94(K\x01K\x00K\x00K\x00K\x00t\x94\x86\x94R\x94\x86\x94R"
        b"\x94.",
    ),
}


def test_tuple_seed_pickles_load_as_byte_seeds():
    gen = cf.gen_b()
    for value in gen.r1, gen:
        for data in TUPLE_SEED_PICKLES[type(value).__name__]:
            twin = pickle.loads(data)
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            registers = [twin] if isinstance(twin, shrinkca.Lfsr) else [twin.r1, twin.r2]
            assert all(type(reg.state) is bytes for reg in registers)


def test_immutable_values_share_one_frozen_base():
    # Gf2Poly, RuleVector, Lfsr and ShrinkingGenerator take assignment,
    # equality, hashing and copying from gf2poly._Frozen.  Their pickles and
    # those of the records holding them keep their bytes, copies rebuild
    # them, no instance has a __dict__ (the base's empty __slots__), and
    # assignment or deletion names the class.
    gen = cf.gen_b()
    values = [
        shrinkca.Gf2Poly.parse(cf.R2B_POLY),
        shrinkca.RuleVector.parse(cf.ORBIT_RULES),
        gen.r1,
        gen,
        shrinkca.berlekamp_massey(gen.shrunken_sequence(124)),
        shrinkca.linearize_shrinking_generator(3, gen.r2.charpoly),
        shrinkca.verify_linearization(gen),
    ]
    protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
    for value in values:
        name = type(value).__name__
        pickles = [pickle.dumps(value, protocol=p) for p in protocols]
        digests = tuple(hashlib.sha256(data).hexdigest()[:16] for data in pickles)
        assert digests == PICKLE_DIGESTS[name], name
        for twin in copy.copy(value), copy.deepcopy(value):
            assert type(twin) is type(value) and repr(twin) == repr(value)
            assert [pickle.dumps(twin, protocol=p) for p in protocols] == pickles
        assert not hasattr(value, "__dict__"), name
    for value in values[:4]:
        assert isinstance(value, gf2poly._Frozen)
        message = f"^{type(value).__name__} is immutable$"
        with pytest.raises(AttributeError, match=message):
            value.anything = 0
        for name in value.__slots__:
            with pytest.raises(AttributeError, match=message):
                delattr(value, name)
        assert repr(value) == repr(copy.copy(value))


@st.composite
def value_pairs(draw):
    """Two values of one _Frozen type, built apart: each part of the second
    is the first's again or a fresh draw, so the two often differ in one."""
    Gf2Poly, RuleVector, Lfsr = shrinkca.Gf2Poly, shrinkca.RuleVector, shrinkca.Lfsr
    kind = draw(st.sampled_from(["Gf2Poly", "RuleVector", "Lfsr", "ShrinkingGenerator"]))

    def twice(parts):
        first = draw(parts)
        return first, first if draw(st.booleans()) else draw(parts)

    def registers(r):
        polys = twice(st.integers(1 << r, (2 << r) - 1))
        seeds = twice(st.lists(st.integers(0, 1), min_size=r, max_size=r))
        return [Lfsr(Gf2Poly(poly), seed) for poly, seed in zip(polys, seeds)]

    if kind == "Gf2Poly":
        return [Gf2Poly(bits) for bits in twice(st.integers(0, 15))]
    if kind == "RuleVector":
        rules = twice(st.lists(st.integers(0, 1), min_size=1, max_size=3))
        return [RuleVector(delta) for delta in rules]
    if kind == "Lfsr":
        return registers(draw(st.integers(1, 2)))
    l1, l2 = draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2)]))
    return [shrinkca.ShrinkingGenerator(*pair) for pair in zip(registers(l1), registers(l2))]


@given(value_pairs())
def test_values_are_equal_exactly_when_their_reprs_are(pair):
    # A repr names a value's type and every slot, so two values built apart
    # are equal exactly when their reprs are, and equal values hash equal.
    # A value of another type is not equal, even with the same slot values.
    a, b = pair
    assert (a == b) == (repr(a) == repr(b)) == (not a != b)
    if a == b:
        assert hash(a) == hash(b)
    if isinstance(b, shrinkca.RuleVector):
        assert shrinkca.Gf2Poly(b._marked) != b != b._marked
    if isinstance(b, shrinkca.Gf2Poly):
        assert b != b.bits


def test_library_calls_leave_no_cyclic_garbage():
    # Each routine runs once as a warm-up, then again with the cyclic
    # collector off and saving what it frees, so a reference cycle the call
    # made is left in gc.garbage.  shrinkca.cli.main is left out: argparse
    # builds a parser full of cycles on every call.
    p2, base = shrinkca.Gf2Poly.parse(cf.R2B_POLY), shrinkca.Gf2Poly.parse(cf.BASE5)
    gen = cf.gen_b()
    rules = shrinkca.linearize_shrinking_generator(3, p2).rules_a
    window = gen.shrunken_sequence(124)

    def verify():
        report = shrinkca.verify_linearization(gen)
        return report.to_dict(), report.to_text()

    calls = {
        "synthesize_ca_pair": lambda: shrinkca.synthesize_ca_pair(base),
        "linearize_shrinking_generator": lambda: shrinkca.linearize_shrinking_generator(3, p2),
        "verify_linearization, to_dict, to_text": verify,
        "fit_initial_state": lambda: shrinkca.fit_initial_state(rules, window),
        "ca_run, cell_output": lambda: shrinkca.cell_output(shrinkca.ca_run(rules, 1, 40), 0),
        "berlekamp_massey": lambda: shrinkca.berlekamp_massey(window),
        "minimal_polynomial_of_power": lambda: shrinkca.minimal_polynomial_of_power(p2, 7),
        "is_primitive": lambda: shrinkca.is_primitive(p2),
        "Lfsr.sequence": lambda: gen.r2.sequence(200),
        "shrunken_sequence": lambda: gen.shrunken_sequence(200),
        "Gf2Poly.parse, __pow__": lambda: shrinkca.Gf2Poly.parse("1+x^2+x^5") ** 4,
    }
    enabled, flags = gc.isenabled(), gc.get_debug()
    try:
        for name, call in calls.items():
            call()
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            call()
            gc.collect()
            gc.set_debug(flags)
            left = [type(obj).__name__ for obj in gc.garbage]
            gc.garbage.clear()
            assert left == [], name
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # `dataclasses` imports `inspect`, which costs more than the whole package.
    code = "import shrinkca.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    assert cf.bare_python(code) == "[]\n"


def test_cli_import_leaves_out_json_and_the_package_leaves_out_re():
    # The records are collections.namedtuple classes, so no module imports
    # `typing`, which loads `re` and `enum`; only `--format json` output
    # loads `json`.  The CLI's `argparse` loads `re` and `enum` itself.
    for module, left_out in (
        ("shrinkca", ["dataclasses", "enum", "inspect", "json", "re", "typing"]),
        ("shrinkca.cli", ["dataclasses", "inspect", "json", "typing"]),
    ):
        code = f"import {module}\nprint(sorted({left_out!r} & sys.modules.keys()))\n"
        assert cf.bare_python(code) == "[]\n", module
