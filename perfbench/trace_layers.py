"""Layer spans for the traced run, recorded around the program's public functions.

``Tracer.install`` replaces each traced function under every name it is
bound to in the loaded polylandau modules: ``cli`` imports the solvers
and checks by name and ``polyfunc`` binds ``series_eval`` at import, so
patching the defining module alone would miss calls.  Each layer keeps
its call count and its inclusive time at its outermost level (a solver
calling another solver counts once), its self time (span minus the
traced spans inside it) and a work count where the layer has one.
Standard library only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layer -> (module, function names)
LAYERS = {
    "cli": ("polylandau.cli", ("main",)),
    "radii.solve": ("polylandau.radii", (
        "deriv_radii", "normalized_radii", "modulus_radii", "mixed_radii",
        "log_deriv_radii", "log_normalized_radii", "log_modulus_radii", "log_mixed_radii",
        "classical_landau", "bianalytic_deriv_baseline", "bianalytic_bounded_baseline", "poly_modulus_baseline",
    )),
    "radii.margin": ("polylandau.radii", (
        "univalence_margin_deriv", "univalence_margin_normalized",
        "univalence_margin_modulus", "univalence_margin_mixed",
    )),
    "extremal.build": ("polylandau.extremal", (
        "bounded_deriv_component", "deriv_extremal_fn", "normalized_extremal_fn", "unit_modulus_extremal_fn",
    )),
    "series.eval": ("polylandau.series", ("series_eval",)),
    "polyfunc.eval": ("polylandau.polyfunc", ("poly_eval", "logp_eval")),
    "verify.univalence_grid": ("polylandau.verify", ("univalence_grid_check",)),
    "verify.hypothesis_audit": ("polylandau.verify", ("hypothesis_audit",)),
    "verify.coverage": ("polylandau.verify", ("schlicht_coverage_check",)),
    "verify.monotonicity": ("polylandau.verify", ("monotonicity_check",)),
    "verify.exp_disk": ("polylandau.verify", ("exp_disk_check",)),
}


def _series_terms(args, kwargs, result) -> int:
    series = args[0] if args else kwargs["s"]
    return len(series.coeffs)


def _built_terms(args, kwargs, result) -> int:
    comps = getattr(result, "components", (result,))
    return sum(len(c.coeffs) for c in comps)


def _grid_pairs(signature):
    def pairs(args, kwargs, result) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = bound.arguments["grid"]
        n = grid.radial_count * grid.angular_count + len(bound.arguments["extra_points"])
        return n * (n - 1) // 2

    return pairs


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # traced time inside each open span
        self._depth: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.incl_s = {layer: 0.0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.work = {layer: 0 for layer in LAYERS}

    def _wrap(self, layer: str, fn, work=None):
        stack, depth = self._stack, self._depth
        depth.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[layer] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[layer] += elapsed - inner[0]
            if depth[layer] == 0:
                self.calls[layer] += 1
                self.incl_s[layer] += elapsed
                if work is not None:
                    self.work[layer] += work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                if layer == "series.eval":
                    work = _series_terms
                elif layer == "extremal.build":
                    work = _built_terms
                elif layer == "verify.univalence_grid":
                    work = _grid_pairs(inspect.signature(original))
                else:
                    work = None
                wrapper = self._wrap(layer, original, work)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("polylandau"):
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)

    def totals(self) -> dict:
        return {"calls": self.calls, "incl_s": self.incl_s, "self_s": self.self_s, "work": self.work}
