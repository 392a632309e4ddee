"""Command-line front end; every command is deterministic and prints exact
rationals only."""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .boxes import InvalidBoxError, ShapeError, _layout
from .comm import min_oneway_comm_with_SR
from .dd import EnumerationCapError
from .extend import all_extensions_factorize
from .families import make_named_box
from .fileio import (ParseError, _block_lines, _write_text, dumps_box, format_fraction,
                     load_box, load_functional, load_wiring, parse_shape,
                     save_box, save_wiring)
from .locality import (chsh, evaluate_functional, is_local, is_two_way_local,
                       svetlichny)
from .polytope import (VRep, build_hrep, classify_vertices, dimension,
                       enumerate_vertices)
from .wiring import WiringError, evaluate_wiring, preset, protocol3_error


def _strategy_line(strategy, weight):
    outs = _layout(strategy.shape).outs[list(strategy.support())].tolist()
    return f"{format_fraction(weight)} {' '.join(','.join(map(str, o)) for o in outs)}"


def _cmd_validate(args):
    report = load_box(args.box).validate()
    if report.ok:
        print("VALID")
        return 0
    print("INVALID")
    for line in report.problems:
        print(line)
    return 1


def _cmd_make(args):
    try:
        # int() refuses some strings isdigit() accepts: "+-3", "²"
        params = [int(p) if p.lstrip("+-").isdigit() else p for p in args.params]
        box = make_named_box(args.family, *params)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"cannot build family {args.family!r}: {exc}") \
            from None
    save_box(box, args.output)
    return 0


def _cmd_dim(args):
    print(dimension(parse_shape(args.shape)))
    return 0


def _cmd_vertices(args):
    shape = parse_shape(args.shape)
    out = Path(args.output)
    # refused before the enumeration; the directory is made after it, so a
    # failed enumeration leaves none behind
    try:
        clash = out.exists() and not out.is_dir()
    except OSError as exc:
        raise ParseError(f"cannot make directory {out}: {exc.strerror}") from None
    if clash:
        raise ParseError(f"cannot make directory {out}: it exists and is "
                         f"not a directory")
    vrep = enumerate_vertices(build_hrep(shape), max_rays=args.max_rays,
                              time_budget=args.timeout)
    classes = classify_vertices(vrep)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot make directory {out}: {exc.strerror}") \
            from None
    width = max(4, len(str(len(vrep.vertices) - 1)))
    names = [f"vertex_{i:0{width}d}.box" for i in range(len(vrep.vertices))]
    for name, box in zip(names, vrep.vertices):
        save_box(box, out / name)
    # the vertices are sorted by table, so each class's first member is
    # its representative
    lines = [f"{i} {names[cl.members[0]]} {cl.size}" for i, cl in enumerate(classes)]
    _write_text(out / "classes.txt", "".join(line + "\n" for line in lines))
    print(f"vertices {len(vrep.vertices)}")
    print(f"classes {len(classes)}")
    for line in lines:
        print(line)
    return 0


def _cmd_classify(args):
    paths = sorted(Path(args.directory).glob("*.box"))
    if not paths:
        raise ParseError(f"no .box files in {args.directory}")
    boxes = [load_box(p) for p in paths]
    if len({b.shape for b in boxes}) != 1:
        raise ParseError("the boxes do not share one shape")
    vrep = VRep(tuple(boxes), full=True)
    classes = classify_vertices(vrep)
    by_table = {b.table: p.name for p, b in zip(paths, boxes)}
    for i, cl in enumerate(classes):
        print(f"{i} {by_table[cl.representative.table]} {cl.size}")
    return 0


def _cmd_bell(args):
    box = load_box(args.box)
    if args.chsh is not None:
        value = chsh(box, *args.chsh)
    elif args.svetlichny:
        value = svetlichny(box)
    else:
        value = evaluate_functional(box, load_functional(args.functional))
    print(format_fraction(value))
    return 0


def _locality_verdict(args, test):
    result = test(load_box(args.box), cap=args.cap)
    if result:
        print("LOCAL")
        for strategy, weight in zip(result.strategies, result.weights):
            print(_strategy_line(strategy, weight))
        return 0
    print("NONLOCAL")
    print(f"value {format_fraction(result.value)}")
    print(f"threshold {format_fraction(result.threshold)}")
    print("coefficients")
    print(*_block_lines(result.shape, result.coefficients), sep="\n")
    return 1 if args.assert_local else 0


def _cmd_local(args):
    return _locality_verdict(args, is_local)


def _cmd_local2(args):
    return _locality_verdict(args, is_two_way_local)


def _cmd_wire(args):
    box = evaluate_wiring(load_wiring(args.wiring))
    if args.expect is not None:
        if box != load_box(args.expect):
            print("MISMATCH")
            return 1
        print("MATCH")
        return 0
    if args.output is not None:
        save_box(box, args.output)
        return 0
    sys.stdout.write(dumps_box(box))
    return 0


def _cmd_protocol3_error(args):
    print(format_fraction(protocol3_error(args.d, args.dprime, args.n)))
    return 0


def _cmd_mincomm(args):
    bits = min_oneway_comm_with_SR(load_box(args.box), args.max_bits)
    if bits is None:
        print("NONE")
        return 1
    print(bits)
    return 0


def _cmd_extend(args):
    ok, witness = all_extensions_factorize(load_box(args.box), args.env_inputs,
                                           args.env_outputs)
    if ok:
        print("FACTORIZES")
        return 0
    save_box(witness, args.output)
    print(args.output)
    return 1


def _cmd_preset(args):
    save_wiring(preset(args.name, *args.params), args.output)
    return 0


def _add_enumeration_flags(p):
    p.add_argument("--max-rays", type=int, default=2_000_000)
    p.add_argument("--timeout", type=int, default=None,
                   help="abort enumeration after this many seconds")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ParseError``, which ``main`` prints as one line
    with exit 2, instead of printing the usage block and exiting."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@cache
def _build_parser():
    """The one parser of the process: ``parse_args`` makes a fresh
    namespace on every call, so no state carries from one call to the
    next."""
    parser = _Parser(
        prog="nsbox",
        description="Exact analysis of no-signalling boxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a box file for validity")
    p.add_argument("box")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("make", help="write a named box family member")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("dim", help="affine dimension of a shape's polytope")
    p.add_argument("shape")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("vertices", help="enumerate and classify all vertices")
    p.add_argument("shape")
    p.add_argument("-o", "--output", required=True)
    _add_enumeration_flags(p)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("classify", help="orbit-classify a directory of boxes")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bell", help="evaluate a Bell functional on a box")
    p.add_argument("box")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chsh", nargs=3, type=int, metavar=("A", "B", "G"))
    group.add_argument("--svetlichny", action="store_true")
    group.add_argument("--functional")
    p.set_defaults(func=_cmd_bell)

    for name, help_text in (("local", "test membership in the local polytope"),
                            ("local2", "test two-way locality of a "
                                       "tripartite box")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("box")
        p.add_argument("--cap", type=int, default=200_000)
        p.add_argument("--assert-local", action="store_true",
                       help="exit 1 on a NONLOCAL verdict")
        p.set_defaults(func=_cmd_local if name == "local" else _cmd_local2)

    p = sub.add_parser("wire", help="evaluate a wiring file")
    p.add_argument("wiring")
    p.add_argument("--expect", default=None,
                   help="box file the result must equal")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_wire)

    p = sub.add_parser("protocol3-error",
                       help="distance of the chained-box simulation from "
                            "the ideal box")
    p.add_argument("d", type=int)
    p.add_argument("dprime", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_protocol3_error)

    p = sub.add_parser("mincomm", help="least one-way bits that simulate "
                                       "a box given shared randomness")
    p.add_argument("box")
    p.add_argument("--max-bits", type=int, required=True)
    p.set_defaults(func=_cmd_mincomm)

    p = sub.add_parser("extend", help="check that a box only extends as a "
                                      "product with its environment")
    p.add_argument("box")
    p.add_argument("--env-inputs", type=int, required=True)
    p.add_argument("--env-outputs", type=int, required=True)
    p.add_argument("-o", "--output", default="witness.box")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("preset", help="write a stock protocol as a wiring "
                                      "file")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, WiringError, ShapeError, InvalidBoxError,
            EnumerationCapError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
