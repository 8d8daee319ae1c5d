"""Exact invariants of plane curve singularities: Milnor and M numbers,
Tristram-Levine signature functions of torus knots with exact rational
integrals, obstruction checks for deformation scenarios, and a pruned search
over non-obstructed fiber configurations.

`import curvesig` loads no module of the package.  The first use of a name
loads singularities, signature, deformation and enumeration in that order,
up to the one that defines it; each module imports only the ones before it.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("singularities", "signature", "deformation", "enumeration")


def __getattr__(name: str):
    namespace = globals()
    # safe because each module imports only the modules before it in _MODULES
    for module_name in _MODULES:
        module = import_module(f"{__name__}.{module_name}")
        namespace.update((key, getattr(module, key)) for key in module.__all__)
        if name in namespace:
            return namespace[name]
    if name == "__all__":
        namespace[name] = ["__version__", *(key for m in _MODULES for key in namespace[m].__all__)]
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
