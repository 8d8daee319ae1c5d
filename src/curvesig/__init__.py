"""Exact invariants of plane curve singularities: Milnor and M numbers,
Tristram-Levine signature functions of torus knots with exact rational
integrals, obstruction checks for deformation scenarios, and a pruned search
over non-obstructed fiber configurations.

`_EXPORTS` declares each public name once, in the row of the library module
that defines it, and that module's `__all__` is its row.  The document format
(`curvesig.documents`) and the command line (`curvesig.cli`) declare their own.

`import curvesig` loads no module of the package.  The first use of a name
loads the one module that defines it, with the modules that module imports:
`signature` and `deformation` each import `singularities`, and `enumeration`
imports `deformation`.  A module name, such as `curvesig.deformation`, loads
that module the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

# each library module and its public names, in the order of __all__
_EXPORTS = {
    "singularities": [
        "Cusp",
        "milnor_number",
        "m_number",
        "m_bar_number",
        "n_squared_defect",
    ],
    "signature": [
        "BreakpointEvaluation",
        "NearSingularForm",
        "StepFunction",
        "SeifertMatrix",
        "torus_signature_at",
        "torus_signature_function",
        "integral",
        "bidiagonal_seifert",
        "seifert_signature_at",
    ],
    "deformation": [
        "DeformationScenario",
        "EqualityVerdict",
        "SweepVerdict",
        "RationalVerdict",
        "ObstructionReport",
        "full_report",
        "bmy_check",
    ],
    "enumeration": [
        "SearchBudget",
        "SearchResult",
        "candidate_cusps",
        "enumerate_admissible",
        "count_admissible",
    ],
}

# the module that defines each public name
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
