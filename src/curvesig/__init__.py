"""Exact invariants of plane curve singularities: Milnor and M numbers,
Tristram-Levine signature functions of torus knots with exact rational
integrals, obstruction checks for deformation scenarios, and a pruned search
over non-obstructed fiber configurations.

`import curvesig` loads no module of the package.  The first use of a name
loads the one module that defines it, with the modules that module imports:
`signature` and `deformation` each import `singularities`, and `enumeration`
imports `deformation`.  A module name, such as `curvesig.deformation`, loads
that module the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name, in the order of __all__
_HOMES = {
    "Cusp": "singularities",
    "milnor_number": "singularities",
    "m_number": "singularities",
    "m_bar_number": "singularities",
    "n_squared_defect": "singularities",
    "BreakpointEvaluation": "signature",
    "NearSingularForm": "signature",
    "StepFunction": "signature",
    "SeifertMatrix": "signature",
    "jump_set": "signature",
    "torus_signature_at": "signature",
    "torus_signature_function": "signature",
    "integral": "signature",
    "bidiagonal_seifert": "signature",
    "seifert_signature_at": "signature",
    "DeformationScenario": "deformation",
    "EqualityVerdict": "deformation",
    "SweepVerdict": "deformation",
    "RationalVerdict": "deformation",
    "ObstructionReport": "deformation",
    "full_report": "deformation",
    "bmy_check": "deformation",
    "SearchBudget": "enumeration",
    "SearchResult": "enumeration",
    "candidate_cusps": "enumeration",
    "enumerate_admissible": "enumeration",
    "count_admissible": "enumeration",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name, name)
    if home not in _HOMES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
