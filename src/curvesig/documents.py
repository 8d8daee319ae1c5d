"""Scenario file format and report serialization, as the command line reads
and writes them.  Only `check`, `signature --at` (for the rational) and
`bmy --cusps-file` load this module, and it is the one module that exports
the document names.

Report documents are parsed from their exact sides alone and must be exactly
the rendering of the report those sides give: a wrong verdict word, margin or
overall, an unknown key or a non-canonical rational is an input error.
"""

from __future__ import annotations

import re
from fractions import Fraction

# json and deformation are imported where they are used.  Never import
# curvesig.cli here: under `python -m` it runs as __main__ and would compile twice.
from .singularities import Cusp

__all__ = ["ScenarioFormatError", "parse_rational", "parse_scenario", "serialize_report", "parse_report"]


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
    cusps = tuple(_cusp_from_json(item, f"cusps[{i}]") for i, item in enumerate(data["cusps"]))
    from .deformation import DeformationScenario
    try:
        return DeformationScenario(central, cusps, data["double_points"], data["genus"])
    except ValueError as err:
        raise ScenarioFormatError(str(err)) from err


def _cusp_from_json(item, where: str) -> Cusp:
    if not (isinstance(item, list) and len(item) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in item)):
        raise ScenarioFormatError(f"{where}: expected a pair [p, q] of integers")
    try:
        return Cusp(item[0], item[1])
    except ValueError as err:
        raise ScenarioFormatError(f"{where}: {err}") from err


def _cusps_from_file(path: str) -> list[Cusp]:
    with open(path, encoding="utf-8") as f:
        data = _load_json(f.read())
    if not isinstance(data, list):
        raise ScenarioFormatError("cusp file must contain a JSON list of [p, q] pairs")
    return [_cusp_from_json(item, f"cusps[{i}]") for i, item in enumerate(data)]


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
            m_number_bound=RationalVerdict(parse_rational(data["m_number_bound"]["left"]),
                                           parse_rational(data["m_number_bound"]["right"])),
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
