"""Command line interface, scenario file format and report serialization.

Subcommands: invariants, signature, check, enumerate, bmy.  Results go to
stdout, diagnostics to stderr.  Exit status is 0 on success (including a
"holds"/"admissible" verdict), 1 for an obstructed scenario or violated
bound, 2 for any input error (with nothing on stdout), and 141 (128 +
SIGPIPE, with nothing on stderr) when the reader closes stdout early.  Every
number printed is an exact integer or a rational "a/b"; floating point
notation never appears.

Report documents are parsed from their exact sides alone and must be exactly
the rendering of the report those sides give: a wrong verdict word, margin or
overall, an unknown key or a non-canonical rational is an input error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

# The other library modules and json are imported where they are used, so a
# cold process loads only what its subcommand runs.
from .singularities import Cusp, m_bar_number, m_number, milnor_number, n_squared_defect

__all__ = [
    "ScenarioFormatError",
    "parse_rational",
    "format_rational",
    "parse_scenario",
    "serialize_report",
    "parse_report",
    "main",
]


class ScenarioFormatError(ValueError):
    """Invalid scenario or report document."""


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' with an optional leading sign and no whitespace."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r} (expected 'a/b' or an integer)")
    numerator, _, denominator = text.partition("/")
    if not denominator:
        return Fraction(int(numerator))
    if int(denominator) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(numerator), int(denominator))


def format_rational(value) -> str:
    """Render an exact value as 'n' or 'n/d'; never floating point."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _document_rational(value: Fraction) -> str:
    # documents always carry an explicit denominator for schema stability
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _load_json(text: str):
    import json
    try:
        return json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as err:
        raise ScenarioFormatError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise ScenarioFormatError("JSON nested too deeply") from err


def _object_without_repeats(pairs: list) -> dict:
    # json.loads would keep the last of two equal keys without a word
    document = {}
    for key, value in pairs:
        if key in document:
            raise ScenarioFormatError(f"repeated key: {key}")
        document[key] = value
    return document


# ---------------------------------------------------------------------------
# scenario files

_SCENARIO_KEYS = ("central", "cusps", "double_points", "genus")


def parse_scenario(text: str) -> DeformationScenario:
    """Parse a scenario document.

    Expected shape: {"central": [p, q], "cusps": [[p, q], ...],
    "double_points": n, "genus": g}.  Unknown keys are rejected and every
    descriptor constraint is enforced here, with the offending key named.
    """
    from .deformation import DeformationScenario
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario must be a JSON object")
    unknown = sorted(set(data) - set(_SCENARIO_KEYS))
    if unknown:
        raise ScenarioFormatError(f"unknown keys: {', '.join(unknown)}")
    missing = [key for key in _SCENARIO_KEYS if key not in data]
    if missing:
        raise ScenarioFormatError(f"missing keys: {', '.join(missing)}")
    central = _cusp_from_json(data["central"], "central")
    if not isinstance(data["cusps"], list):
        raise ScenarioFormatError("cusps: expected a list of [p, q] pairs")
    cusps = tuple(
        _cusp_from_json(item, f"cusps[{i}]") for i, item in enumerate(data["cusps"])
    )
    try:
        return DeformationScenario(central, cusps, data["double_points"], data["genus"])
    except ValueError as err:
        raise ScenarioFormatError(str(err)) from err


def _cusp_from_json(item, where: str) -> Cusp:
    if (
        not isinstance(item, list)
        or len(item) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
    ):
        raise ScenarioFormatError(f"{where}: expected a pair [p, q] of integers")
    try:
        return Cusp(item[0], item[1])
    except ValueError as err:
        raise ScenarioFormatError(f"{where}: {err}") from err


# ---------------------------------------------------------------------------
# report documents

def _report_to_document(report: ObstructionReport) -> dict:
    """Plain-JSON rendering of a report; rationals become 'n/d' strings."""
    return {
        "betti": report.betti,
        "genus_formula": {
            "verdict": _verdict_word(report.genus_formula.holds),
            "left": report.genus_formula.left,
            "right": report.genus_formula.right,
        },
        "signature_bound": _sweep_to_document(report.signature_bound),
        "one_sided_bound": _sweep_to_document(report.one_sided_bound),
        "m_number_bound": {
            "verdict": _verdict_word(report.m_number_bound.holds),
            "left": _document_rational(report.m_number_bound.left),
            "right": _document_rational(report.m_number_bound.right),
            "margin": _document_rational(report.m_number_bound.margin),
        },
        "overall": report.overall,
    }


def _verdict_word(holds: bool) -> str:
    return "holds" if holds else "fails"


def _sweep_to_document(verdict: SweepVerdict) -> dict:
    return {
        "verdict": _verdict_word(verdict.holds),
        "witness": _document_rational(verdict.witness),
        "left": verdict.left,
        "right": verdict.right,
        "margin": verdict.margin,
    }


def serialize_report(report: ObstructionReport) -> str:
    import json
    return json.dumps(_report_to_document(report), indent=2)


def parse_report(text: str) -> ObstructionReport:
    """Rebuild a report from its document (inverse of serialize_report).

    Only the sides and witnesses are read; the document must then be exactly
    the rendering of the rebuilt report, JSON types included (a margin 2.0
    is not 2), so "betti" must equal the signature bound's right side.
    """
    import json
    from .deformation import EqualityVerdict, ObstructionReport, RationalVerdict
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ScenarioFormatError("report must be a JSON object")
    try:
        report = ObstructionReport(
            genus_formula=EqualityVerdict(data["genus_formula"]["left"], data["genus_formula"]["right"]),
            signature_bound=_sweep_from_document(data["signature_bound"]),
            one_sided_bound=_sweep_from_document(data["one_sided_bound"]),
            m_number_bound=RationalVerdict(
                parse_rational(data["m_number_bound"]["left"]),
                parse_rational(data["m_number_bound"]["right"]),
            ),
        )
        canonical = json.dumps(_report_to_document(report), sort_keys=True)
        consistent = json.dumps(data, sort_keys=True) == canonical
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioFormatError(f"malformed report document: {err}") from err
    if not consistent:
        raise ScenarioFormatError("report document is not the rendering of its own sides")
    return report


def _sweep_from_document(data: dict) -> SweepVerdict:
    from .deformation import SweepVerdict
    return SweepVerdict(parse_rational(data["witness"]), data["left"], data["right"])


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
    from .signature import integral, torus_signature_at, torus_signature_function
    cusp = Cusp(args.p, args.q)
    if args.at is not None:
        x = parse_rational(args.at)
        print(torus_signature_at(cusp, x))
        return 0
    fn = torus_signature_function(cusp)
    grid = (Fraction(0), *fn.breakpoints, Fraction(1))
    for i, value in enumerate(fn.values):
        print(f"({format_rational(grid[i])}, {format_rational(grid[i + 1])}): {value}")
    print(f"integral = {format_rational(integral(fn))}")
    return 0


def _cmd_check(args) -> int:
    from .deformation import full_report
    with open(args.path, encoding="utf-8") as f:
        text = f.read()
    scenario = parse_scenario(text)
    report = full_report(scenario)
    print(serialize_report(report))
    return 0 if report.admissible else 1


def _cmd_enumerate(args) -> int:
    from .enumeration import SearchBudget, count_admissible, enumerate_admissible
    budget = SearchBudget(
        Cusp(args.p, args.q),
        args.max_genus,
        args.max_double_points,
        require_genus_formula=not args.no_genus_formula,
    )
    if args.count:
        print(count_admissible(budget))
        return 0
    for result in enumerate_admissible(budget):
        s = result.scenario
        cusps = ",".join(str(c) for c in s.cusps)
        print(f"cusps=[{cusps}] genus={s.genus} double_points={s.double_points}")
    return 0


def _cmd_bmy(args) -> int:
    from .deformation import bmy_check
    cusps = [_cusp_from_pair_text(text) for text in args.cusps]
    if args.cusps_file is not None:
        cusps.extend(_cusps_from_file(args.cusps_file))
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


def _cusps_from_file(path: str) -> list[Cusp]:
    with open(path, encoding="utf-8") as f:
        data = _load_json(f.read())
    if not isinstance(data, list):
        raise ScenarioFormatError("cusp file must contain a JSON list of [p, q] pairs")
    return [_cusp_from_json(item, f"cusps[{i}]") for i, item in enumerate(data)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvesig",
        description="Exact invariants of plane curve singularities and deformation obstruction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print mu, M_bar, M and N2 of the (p, q) cusp")
    p_inv.add_argument("p", type=int)
    p_inv.add_argument("q", type=int)
    p_inv.set_defaults(handler=_cmd_invariants)

    p_sig = sub.add_parser("signature", help="signature function of the (p, q) torus knot")
    p_sig.add_argument("p", type=int)
    p_sig.add_argument("q", type=int)
    p_sig.add_argument("--at", metavar="X", help="evaluate at the rational X instead of printing the whole function")
    p_sig.set_defaults(handler=_cmd_signature)

    p_check = sub.add_parser("check", help="evaluate all obstruction checks for a scenario file")
    p_check.add_argument("path")
    p_check.set_defaults(handler=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="list non-obstructed fiber configurations for a central cusp")
    p_enum.add_argument("p", type=int)
    p_enum.add_argument("q", type=int)
    p_enum.add_argument("--max-genus", type=int, default=0)
    p_enum.add_argument("--max-double-points", type=int, default=0)
    p_enum.add_argument("--count", action="store_true", help="print only the number of configurations")
    p_enum.add_argument(
        "--no-genus-formula",
        action="store_true",
        help="do not require the genus formula to hold for emitted configurations",
    )
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_bmy = sub.add_parser("bmy", help="cuspidal-content bound for a parametric curve of bidegree (p, q)")
    p_bmy.add_argument("p", type=int)
    p_bmy.add_argument("q", type=int)
    p_bmy.add_argument("--cusps", nargs="*", default=[], metavar="P,Q", help="cusps of the curve, written p,q")
    p_bmy.add_argument("--cusps-file", metavar="PATH", help="JSON file with a list of [p, q] pairs")
    p_bmy.add_argument("--double-points", type=int, default=0)
    p_bmy.set_defaults(handler=_cmd_bmy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
