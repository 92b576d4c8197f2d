"""Univalence and schlicht-disk radii for poly-analytic and log-analytic-product maps.

Every submodule but ``cli`` is registered as a lazy module (``_lazy``) and
bound as an attribute of the package; an exported name resolves on first
use through ``__getattr__``, which loads the one submodule that defines it.
So ``import polylandau`` executes no submodule, and the solver commands
load only the solver (``_lazy`` lists what each command loads).
"""

from ._lazy import lazy_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("BracketError", "DegenerateResultError", "DomainError", "PolyLandauError"),
    "extremal": (
        "bounded_deriv_component",
        "collision_pair",
        "deriv_extremal_fn",
        "normalized_extremal_fn",
        "reversal_point",
        "unit_modulus_extremal_fn",
    ),
    "polyfunc": ("LogPAnalyticFn", "PolyAnalyticFn", "jacobian", "logp_eval", "poly_eval", "poly_jet"),
    "radii": (
        "DerivAll",
        "DerivNormalized",
        "MixedDerivModulus",
        "ModulusAll",
        "Profile",
        "RadiiResult",
        "bianalytic_bounded_baseline",
        "bianalytic_deriv_baseline",
        "classical_landau",
        "deriv_radii",
        "log_bound_from_modulus",
        "log_deriv_radii",
        "log_mixed_radii",
        "log_modulus_radii",
        "log_normalized_radii",
        "log_variant",
        "mixed_radii",
        "modulus_radii",
        "normalized_radii",
        "poly_modulus_baseline",
        "univalence_margin_deriv",
        "univalence_margin_mixed",
        "univalence_margin_modulus",
        "univalence_margin_normalized",
    ),
    "series": ("TruncatedTaylorSeries", "series_derivative", "series_eval"),
    "verify": (
        "GridSpec",
        "VerificationReport",
        "WitnessPass",
        "boundary_simple_check",
        "exp_disk_check",
        "hypothesis_audit",
        "jacobian_grid_check",
        "monotonicity_check",
        "schlicht_coverage_check",
        "univalence_grid_check",
        "witness_pass",
    ),
}
# exported name -> its submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

errors = lazy_module(f"{__name__}.errors")
extremal = lazy_module(f"{__name__}.extremal")
polyfunc = lazy_module(f"{__name__}.polyfunc")
radii = lazy_module(f"{__name__}.radii")
series = lazy_module(f"{__name__}.series")
verify = lazy_module(f"{__name__}.verify")


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
