"""Command-line front end.

Subcommands: lfsr, shrink, ca run, ca charpoly, linearize, bm, attack.
Bit strings are index-0-leftmost, polynomials ascending-coefficient;
every printed canonical value parses back losslessly.  Counts are
mandatory so identical invocations always print identical output, and
``lfsr``, ``shrink`` and ``ca run`` refuse an output of over
MAX_WINDOW_BITS bits ((steps + 1) * cells for ``ca run``) up front;
``bm`` refuses a longer stream, reading at most one chunk past it.

Exit status: 0 on success, 1 when an attack verdict is false, 2 on
usage or validation errors and when memory runs out, 3 on an internal
error (a failed invariant check, reported as ``shrinkca: internal
error: ...``).
"""

import argparse
import sys
from collections.abc import Sequence
from itertools import islice

from .analysis import MAX_WINDOW_BITS, berlekamp_massey, verify_linearization
from .automata import RuleVector, _orbit, ca_char_poly, state_from_bits
from .generators import Lfsr, ShrinkingGenerator, format_bits, parse_bits
from .gf2poly import Gf2Poly, _text
from .linearizer import linearize_shrinking_generator

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="shrinkca",
        description="Simulate, linearize, and verify shrinking generators.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def finish(p, handler):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser("lfsr", help="emit a shift-register stream")
    p.add_argument("--poly", required=True, help="characteristic polynomial")
    p.add_argument("--seed", required=True, help="first degree-many output bits")
    p.add_argument("--count", type=int, required=True, help="bits to emit")
    finish(p, _cmd_lfsr)

    def add_registers(p):
        p.add_argument("--p1", required=True, help="control polynomial")
        p.add_argument("--s1", required=True, help="control seed")
        p.add_argument("--p2", required=True, help="data polynomial")
        p.add_argument("--s2", required=True, help="data seed")

    p = sub.add_parser("shrink", help="emit a shrunken keystream")
    add_registers(p)
    p.add_argument("--count", type=int, required=True, help="bits to emit")
    finish(p, _cmd_shrink)

    ca = sub.add_parser("ca", help="hybrid 90/150 automaton tools")
    casub = ca.add_subparsers(dest="ca_command", required=True)
    p = casub.add_parser("run", help="print the state orbit")
    p.add_argument("--rules", required=True, help="rule string, 0=90 1=150")
    p.add_argument("--state", required=True, help="initial cells, cell 1 leftmost")
    p.add_argument("--steps", type=int, required=True, help="steps to advance")
    finish(p, _cmd_ca_run)
    p = casub.add_parser("charpoly", help="characteristic polynomial of the rules")
    p.add_argument("--rules", required=True, help="rule string, 0=90 1=150")
    finish(p, _cmd_ca_charpoly)

    p = sub.add_parser("linearize", help="synthesize the automaton pair")
    p.add_argument("--l1", type=int, required=True, help="control register length")
    p.add_argument("--p2", required=True, help="data polynomial (primitive)")
    finish(p, _cmd_linearize)

    p = sub.add_parser("bm", help="linear complexity of a bit stream")
    p.add_argument("--seq", help="bit string to analyze")
    p.add_argument("--seq-file", help="file holding a [01\\s]+ stream")
    finish(p, _cmd_bm)

    p = sub.add_parser("attack", help="full linearization verdict")
    add_registers(p)
    finish(p, _cmd_attack)

    return top


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        import json  # here, so that text output never loads it
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _check_size(bits: int) -> None:
    if bits > MAX_WINDOW_BITS:
        raise ValueError(f"the output would be {bits} bits, over {MAX_WINDOW_BITS}")


def _register(poly: str, seed: str) -> Lfsr:
    return Lfsr(Gf2Poly.parse(poly), parse_bits(seed))


def _generator(args) -> ShrinkingGenerator:
    return ShrinkingGenerator(_register(args.p1, args.s1), _register(args.p2, args.s2))


def _emit_stream(args, sequence) -> int:
    _check_size(args.count)
    bits = format_bits(sequence(args.count))
    _emit(args, [bits], {"bits": bits})
    return 0


def _cmd_lfsr(args) -> int:
    return _emit_stream(args, _register(args.poly, args.seed).sequence)


def _cmd_shrink(args) -> int:
    return _emit_stream(args, _generator(args).shrunken_sequence)


def _cmd_ca_run(args) -> int:
    rules = RuleVector.parse(args.rules)
    cells = parse_bits(args.state)
    if len(cells) != len(rules):
        raise ValueError("state length must match the rule string")
    _check_size((args.steps + 1) * len(rules))
    orbit = _orbit(rules, state_from_bits(cells), args.steps)  # checks the steps
    # Rows are written as they are stepped, so one block of rows is held at
    # a time; the JSON is byte for byte what json.dumps({"states": rows})
    # prints.
    if args.format == "json":
        head, sep, tail = '{"states": ["', '", "', '"]}\n'
    else:
        head, sep, tail = "", "\n", "\n"
    rows = (_text(state, len(rules)) for state in orbit)
    write = sys.stdout.write
    write(head + next(rows))  # the start state
    # An unbuffered stdout makes each write a system call: write in blocks.
    while block := list(islice(rows, 4096)):
        write(sep + sep.join(block))
    write(tail)
    return 0


def _cmd_ca_charpoly(args) -> int:
    poly = ca_char_poly(RuleVector.parse(args.rules)).to_bitstring()
    _emit(args, [poly], {"charpoly": poly})
    return 0


def _cmd_linearize(args) -> int:
    result = linearize_shrinking_generator(args.l1, Gf2Poly.parse(args.p2))
    _emit(args, [str(result.rules_a), str(result.rules_b)], result.to_dict())
    return 0


def _cmd_bm(args) -> int:
    if (args.seq is None) == (args.seq_file is None):
        raise ValueError("provide exactly one of --seq or --seq-file")
    text = args.seq
    if args.seq_file is not None:
        text = ""
        with open(args.seq_file, "r", encoding="ascii") as fh:
            # Whitespace goes as each chunk is read, so at most one chunk
            # past the bound is ever held.
            while len(text) <= MAX_WINDOW_BITS and (chunk := fh.read(1 << 16)):
                text += "".join(chunk.split())
    if len(text.strip()) > MAX_WINDOW_BITS:
        raise ValueError(f"the stream is over {MAX_WINDOW_BITS} bits")
    result = berlekamp_massey(parse_bits(text))
    poly = result.connection_poly.to_bitstring()
    _emit(
        args,
        [f"lc={result.linear_complexity} charpoly={poly}"],
        {"linear_complexity": result.linear_complexity, "connection_poly": poly},
    )
    return 0


def _cmd_attack(args) -> int:
    report = verify_linearization(_generator(args))
    _emit(args, [report.to_text()], report.to_dict())
    return 0 if report.verdict else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"shrinkca: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("shrinkca: error: out of memory", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"shrinkca: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
