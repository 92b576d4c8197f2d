"""Poly-analytic function values and Wirtinger-calculus functionals.

An order-p function is stored as its p analytic components A_0..A_{p-1};
the value at z is sum_k conj(z)^k A_k(z).  A component is anything with
``value`` and ``derivative`` methods that evaluate A_k and A_k' at every
point of an array (``Component``): the closed-form extremal components
and ``TruncatedTaylorSeries`` both are.  The structural derivatives

    F_z    = sum_k conj(z)^k A_k'(z)
    F_zbar = sum_k k conj(z)^(k-1) A_k(z)

come straight from the components; numerical differencing exists only as
a test oracle.  Sense preservation is exposed through the sign of the
Jacobian |F_z|^2 - |F_zbar|^2.

``poly_eval``, ``logp_eval``, the Wirtinger derivatives and ``jacobian``
evaluate at one point; their ``_array`` forms evaluate a whole array of
points at once and serve the grid checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Protocol

from ._lazy import lazy_numpy
from .errors import DomainError
from .series import _cmul, _require_in_disk, _require_in_disk_array

np = lazy_numpy()


class Component(Protocol):
    """An analytic component: A(z) and A'(z) at one complex point or every point of an array."""

    def value(self, z) -> np.ndarray | complex: ...

    def derivative(self, z) -> np.ndarray | complex: ...


@dataclass(frozen=True)
class PolyAnalyticFn:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise DomainError("a poly-analytic function needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def order(self) -> int:
        return len(self.components)

    def __call__(self, z: complex) -> complex:
        return poly_eval(self, z)

    @classmethod
    def normalized(cls, components) -> "PolyAnalyticFn":
        """Constructor enforcing A_k(0) = 0 for every k and A_0'(0) = 1."""
        fn = cls(tuple(components))
        for k, comp in enumerate(fn.components):
            if comp.value(0j) != 0:
                raise DomainError(f"component {k} must vanish at the origin (A(0) = 0)")
        if fn.components[0].derivative(0j) != 1:
            raise DomainError("leading component must have unit derivative at the origin (A'(0) = 1)")
        return fn


@dataclass(frozen=True)
class LogPAnalyticFn:
    """Product function f = exp(F) for a poly-analytic F with F(0) = 0."""

    log_part: PolyAnalyticFn

    def __post_init__(self) -> None:
        if poly_eval(self.log_part, 0j) != 0:
            raise DomainError("log part must vanish at the origin so the product equals 1 there")

    @property
    def order(self) -> int:
        return self.log_part.order

    def __call__(self, z: complex) -> complex:
        return logp_eval(self, z)


def poly_eval(F: PolyAnalyticFn, z: complex) -> complex:
    z = _require_in_disk(z)
    zbar = z.conjugate()
    acc = 0j
    power = 1 + 0j  # conj(z)^k by running product
    for comp in F.components:
        acc += power * complex(comp.value(z))
        power *= zbar
    return acc


def poly_eval_array(F: PolyAnalyticFn, z) -> np.ndarray:
    """``poly_eval`` at every point of an array, with the same roundings."""
    z = _require_in_disk_array(z)
    zbar = z.conj()
    acc = np.zeros_like(z)
    power = np.ones_like(z)
    for comp in F.components:
        acc += _cmul(power, comp.value(z))
        power = _cmul(power, zbar)
    return acc


def wirtinger_z(F: PolyAnalyticFn, z: complex) -> complex:
    """d/dz derivative: differentiates components, leaves conj(z)^k alone."""
    z = _require_in_disk(z)
    zbar = z.conjugate()
    acc = 0j
    power = 1 + 0j
    for comp in F.components:
        acc += power * complex(comp.derivative(z))
        power *= zbar
    return acc


def wirtinger_zbar(F: PolyAnalyticFn, z: complex) -> complex:
    """d/dzbar derivative: kills the analytic parts, lowers conj(z) powers."""
    z = _require_in_disk(z)
    zbar = z.conjugate()
    acc = 0j
    power = 1 + 0j  # conj(z)^(k-1), starting at k = 1
    for k, comp in enumerate(F.components):
        if k >= 1:
            acc += k * power * complex(comp.value(z))
            power *= zbar
    return acc


def jacobian(F: PolyAnalyticFn, z: complex) -> float:
    """|F_z|^2 - |F_zbar|^2; positive exactly where F is sense-preserving."""
    fz, fzb = abs(wirtinger_z(F, z)), abs(wirtinger_zbar(F, z))
    return fz * fz - fzb * fzb


def wirtinger_z_array(F: PolyAnalyticFn, z) -> np.ndarray:
    """``wirtinger_z`` at every point of an array, with the same roundings."""
    z = _require_in_disk_array(z)
    zbar = z.conj()
    acc = np.zeros_like(z)
    power = np.ones_like(z)
    for comp in F.components:
        acc += _cmul(power, comp.derivative(z))
        power = _cmul(power, zbar)
    return acc


def wirtinger_zbar_array(F: PolyAnalyticFn, z) -> np.ndarray:
    """``wirtinger_zbar`` at every point of an array, with the same roundings."""
    z = _require_in_disk_array(z)
    zbar = z.conj()
    acc = np.zeros_like(z)
    power = np.ones_like(z)  # conj(z)^(k-1), starting at k = 1
    for k, comp in enumerate(F.components[1:], start=1):
        acc += _cmul(k * power, comp.value(z))
        power = _cmul(power, zbar)
    return acc


def jacobian_array(F: PolyAnalyticFn, z) -> np.ndarray:
    """``jacobian`` at every point of an array."""
    fz, fzb = np.abs(wirtinger_z_array(F, z)), np.abs(wirtinger_zbar_array(F, z))
    return fz * fz - fzb * fzb


def logp_eval(f: LogPAnalyticFn, z: complex) -> complex:
    return cmath.exp(poly_eval(f.log_part, z))


def logp_eval_array(f: LogPAnalyticFn, z) -> np.ndarray:
    """``logp_eval`` at every point of an array; np.exp may round the last bit unlike cmath.exp."""
    return np.exp(poly_eval_array(f.log_part, z))
