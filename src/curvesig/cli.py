"""Command line interface.

Subcommands: invariants, signature, check, enumerate, bmy.  Results go to
stdout, diagnostics to stderr.  Exit status is 0 on success (including a
"holds"/"admissible" verdict), 1 for an obstructed scenario or violated
bound, 2 for any input error (with nothing on stdout), and 141 (128 +
SIGPIPE, with nothing on stderr) when the reader closes stdout early.  Every
number printed is an exact integer or a rational "a/b"; floating point
notation never appears.  Scenario and report documents: `curvesig.documents`.

A well-formed line is read straight from the grammar table `_COMMANDS`;
argparse, built from the same table, reads every other line and words help
and every diagnostic.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

# The other library modules, the document format, argparse and json are
# imported where they are used, so a cold process loads only what its line runs.
from .singularities import Cusp, m_bar_number, m_number, milnor_number, n_squared_defect

__all__ = ["ScenarioFormatError", "parse_rational", "format_rational", "parse_scenario",
           "serialize_report", "parse_report", "main"]


def __getattr__(name: str):
    if name in __all__:  # a document name: load curvesig.documents at its first use
        from . import documents
        globals()[name] = value = getattr(documents, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def format_rational(value) -> str:
    """Render an exact value as 'n' or 'n/d'; never floating point."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# commands

def _cmd_invariants(args) -> int:
    cusp = Cusp(args.p, args.q)
    # every line is rendered before the first print, so an error leaves stdout empty
    print(
        f"mu = {milnor_number(cusp)}\n"
        f"M_bar = {m_bar_number(cusp)}\n"
        f"M = {format_rational(m_number(cusp))}\n"
        f"N2 = {format_rational(n_squared_defect(cusp))}"
    )
    return 0


def _cmd_signature(args) -> int:
    cusp = Cusp(args.p, args.q)
    if args.at is not None:
        from .documents import parse_rational
        x = parse_rational(args.at)
        from .signature import torus_signature_at
        print(torus_signature_at(cusp, x))
        return 0
    from .signature import integral, torus_signature_function
    fn = torus_signature_function(cusp)
    grid = (Fraction(0), *fn.breakpoints, Fraction(1))
    for i, value in enumerate(fn.values):
        print(f"({format_rational(grid[i])}, {format_rational(grid[i + 1])}): {value}")
    print(f"integral = {format_rational(integral(fn))}")
    return 0


def _cmd_check(args) -> int:
    with open(args.path, encoding="utf-8") as f:
        text = f.read()
    from .documents import parse_scenario, serialize_report
    scenario = parse_scenario(text)
    from .deformation import full_report
    report = full_report(scenario)
    print(serialize_report(report))
    return 0 if report.admissible else 1


def _cmd_enumerate(args) -> int:
    from .enumeration import SearchBudget, count_admissible, enumerate_admissible
    budget = SearchBudget(Cusp(args.p, args.q), args.max_genus, args.max_double_points,
                          require_genus_formula=not args.no_genus_formula)
    if args.count:
        print(count_admissible(budget))
        return 0
    for result in enumerate_admissible(budget):
        s = result.scenario
        cusps = ",".join(str(c) for c in s.cusps)
        print(f"cusps=[{cusps}] genus={s.genus} double_points={s.double_points}")
    return 0


def _cmd_bmy(args) -> int:
    cusps = [_cusp_from_pair_text(text) for text in args.cusps]
    if args.cusps_file is not None:
        from .documents import _cusps_from_file
        cusps.extend(_cusps_from_file(args.cusps_file))
    from .deformation import bmy_check
    verdict = bmy_check(args.p, args.q, cusps, args.double_points)
    print(
        f"sum_M = {format_rational(verdict.left)}\n"
        f"bound = {format_rational(verdict.right)}\n"
        f"verdict = {'holds' if verdict.holds else 'violated'}"
    )
    return 0 if verdict.holds else 1


def _cusp_from_pair_text(text: str) -> Cusp:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"cusp must be written 'p,q', got {text!r}")
    try:
        return Cusp(int(parts[0]), int(parts[1]))
    except ValueError as err:
        raise ValueError(f"cusp {text!r}: {err}") from err


# command -> (handler, help, ((name, argparse keyword arguments), ...)), with
# the positionals first, as argparse lists them
_PQ = (("p", {"type": int}), ("q", {"type": int}))
_COMMANDS = {
    "invariants": (_cmd_invariants, "print mu, M_bar, M and N2 of the (p, q) cusp", _PQ),
    "signature": (_cmd_signature, "signature function of the (p, q) torus knot", (
        *_PQ,
        ("--at", {"metavar": "X", "help": "evaluate at the rational X instead of printing the whole function"}),
    )),
    "check": (_cmd_check, "evaluate all obstruction checks for a scenario file", (("path", {}),)),
    "enumerate": (_cmd_enumerate, "list non-obstructed fiber configurations for a central cusp", (
        *_PQ,
        ("--max-genus", {"type": int, "default": 0}),
        ("--max-double-points", {"type": int, "default": 0}),
        ("--count", {"action": "store_true", "help": "print only the number of configurations"}),
        ("--no-genus-formula", {"action": "store_true",
                                "help": "do not require the genus formula to hold for emitted configurations"}),
    )),
    "bmy": (_cmd_bmy, "cuspidal-content bound for a parametric curve of bidegree (p, q)", (
        *_PQ,
        ("--cusps", {"nargs": "*", "default": [], "metavar": "P,Q", "help": "cusps of the curve, written p,q"}),
        ("--cusps-file", {"metavar": "PATH", "help": "JSON file with a list of [p, q] pairs"}),
        ("--double-points", {"type": int, "default": 0}),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="curvesig",
        description="Exact invariants of plane curve singularities and deformation obstruction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, spec in arguments:
            command_parser.add_argument(name, **spec)
        command_parser.set_defaults(handler=handler)
    return parser


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed line, or None for any other.

    Well-formed: the command, its positionals, then options spelled out in
    full, each value a token of its own, and no positional or value starting
    with '-'.  `nargs="*"` takes the tokens up to the next one that does.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    options = {}
    tokens = list(reversed(argv[1:]))  # pop() takes the next token
    try:
        for name, spec in arguments:
            if name.startswith("-"):
                options[name] = spec
                values[name[2:].replace("-", "_")] = False if spec.get("action") == "store_true" else spec.get("default")
            elif not tokens or tokens[-1].startswith("-"):
                return None
            else:
                values[name] = spec.get("type", str)(tokens.pop())
        while tokens:
            name = tokens.pop()
            spec = options.get(name)
            if spec is None:
                return None
            if spec.get("action") == "store_true":
                value = True
            elif spec.get("nargs") == "*":
                value = []
                while tokens and not tokens[-1].startswith("-"):
                    value.append(spec.get("type", str)(tokens.pop()))
            elif not tokens or tokens[-1].startswith("-"):
                return None
            else:
                value = spec.get("type", str)(tokens.pop())
            values[name[2:].replace("-", "_")] = value
    except ValueError:  # int() refuses a token: argparse words the error
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # not an input error; devnull keeps the exit flush off the dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
