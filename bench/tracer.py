"""Spans around the calls into curvesig's public functions, from outside.

`Tracer.install` rebinds each traced name in every curvesig namespace that
holds it (the package, each module that imports it, and the class for
methods), so calls between modules are traced as well as calls from the
benchmark.  A span's self time is its duration minus the time of the spans
it encloses.  Nested spans of the same name count as one call, so a wrapper
that calls a method of the same layer is not counted twice.  An exception is
counted once, against the layer it leaves.  Spans live in memory; the worker
reads the totals when its pass ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (module, attribute) pairs, where a module is a curvesig module
# name and an attribute of the form Class.method names a method.
SPANS = {
    "singularities": [("singularities", name) for name in
                      ("milnor_number", "m_number", "m_bar_number", "n_squared_defect")],
    "signature.build": [("signature", "torus_signature_function")],
    "signature.at": [("signature", "torus_signature_at")],
    "signature.jump_set": [("signature", "jump_set")],
    "signature.integral": [("signature", "integral"), ("signature", "StepFunction.integral")],
    "signature.value_at": [("signature", "StepFunction.value_at")],
    "signature.seifert": [("signature", "seifert_signature_at")],
    "deformation.full_report": [("deformation", "full_report")],
    "deformation.genus_formula": [("deformation", "check_genus_formula")],
    "deformation.signature_bound": [("deformation", "check_signature_bound")],
    "deformation.one_sided_bound": [("deformation", "check_one_sided_bound")],
    "deformation.m_number_bound": [("deformation", "check_m_number_bound")],
    "cli.serialize": [("cli", "serialize_report")],
}
GENERATOR_SPANS = {"enumeration.walk": [("enumeration", "enumerate_admissible")]}
LAYERS = ("singularities", "signature", "deformation", "enumeration", "cli")


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in (*SPANS, *GENERATOR_SPANS)}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.missing: list[str] = []
        self._build = None  # the signature build as curvesig defines it
        self._build_misses = 0
        self.emitted = 0
        self.enum_reports = 0
        self.nodes = 0.0
        self._stack: list[list] = []  # [name, child seconds]
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            layer = name.split(".")[0]
            if parent is None or parent[0].split(".")[0] != layer:
                self.errors[layer] += 1
            raise
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            stat = self.stats[name]
            stat.self_s += elapsed - frame[1]
            if parent is not None:
                parent[1] += elapsed
                if parent[0] != name:
                    stat.calls += 1
            else:
                stat.calls += 1

    def _wrap(self, name, fn):
        call = self._call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return traced

    def _wrap_walk(self, name, fn):
        tracer = self

        def traced(budget, *args, **kwargs):
            it = tracer._call(name, fn, (budget,) + args, kwargs)
            reports_before = tracer.enum_reports
            while True:
                try:
                    item = tracer._call(name, next, (it,), {})
                except StopIteration:
                    break
                tracer.emitted += 1
                yield item
            box = (budget.max_genus + 1) * (budget.max_double_points + 1)
            tracer.nodes += (tracer.enum_reports - reports_before) / box

        return traced

    def _count_enum_reports(self, fn):
        def counted(*args, **kwargs):
            self.enum_reports += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import curvesig

        self._build = getattr(curvesig.signature, "torus_signature_function", None)
        if hasattr(self._build, "cache_info"):
            self._build_misses = self._build.cache_info().misses
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "curvesig" or n.startswith("curvesig."))]
        for spans, wrap in ((SPANS, self._wrap), (GENERATOR_SPANS, self._wrap_walk)):
            for name, targets in spans.items():
                for module_name, attr in targets:
                    if not self._rebind(name, module_name, attr, wrap, modules):
                        self.missing.append(f"{module_name}.{attr}")
        # reports built by the walk: full_report as the enumeration module sees it
        enumeration = curvesig.enumeration
        if hasattr(enumeration, "full_report"):
            self._set(enumeration, "full_report", self._count_enum_reports(enumeration.full_report))

    def _rebind(self, name, module_name, attr, wrap, modules) -> bool:
        home = sys.modules.get(f"curvesig.{module_name}")
        if home is None:
            return False
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            original = cls.__dict__.get(method) if cls is not None else None
            if original is None:
                return False
            self._set(cls, method, wrap(name, original))
            return True
        original = getattr(home, attr, None)
        if original is None:
            return False
        traced = wrap(name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._set(module, attr, traced)
        return True

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s = self.stats
        out: dict[str, float] = {}
        out["singularities.calls"] = s["singularities"].calls
        out["singularities.self_s"] = s["singularities"].self_s
        out["signature.build.calls"] = s["signature.build"].calls
        if hasattr(self._build, "cache_info"):
            out["signature.build.built"] = self._build.cache_info().misses - self._build_misses
        else:  # no cache: every call builds
            out["signature.build.built"] = s["signature.build"].calls
        for key in ("build", "at", "jump_set", "integral", "value_at", "seifert"):
            stat = s[f"signature.{key}"]
            if key != "build":
                out[f"signature.{key}.calls"] = stat.calls
            out[f"signature.{key}.self_s"] = stat.self_s
        reports = s["deformation.full_report"].calls
        out["deformation.full_report.calls"] = reports
        out["deformation.value_at_per_report"] = (
            s["signature.value_at"].calls / reports if reports else 0.0)
        for key in ("full_report", "genus_formula", "signature_bound",
                    "one_sided_bound", "m_number_bound"):
            out[f"deformation.{key}.self_s"] = s[f"deformation.{key}"].self_s
        out["enumeration.reports"] = self.enum_reports
        out["enumeration.emitted"] = self.emitted
        out["enumeration.emit_ratio"] = self.emitted / self.enum_reports if self.enum_reports else 0.0
        out["enumeration.nodes"] = self.nodes
        out["enumeration.walk.self_s"] = s["enumeration.walk"].self_s
        out["cli.serialize_s"] = s["cli.serialize"].self_s
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out
