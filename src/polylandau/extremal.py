"""Extremal functions and sharpness witnesses for the radius bounds.

Closed forms are evaluated exactly; series materializations exist so the
verification oracles can inspect coefficients and component derivatives.
``collision_pair`` reproduces the boundary-crossing argument that breaks
univalence just past rho: the real-axis profile of the derivative-family
extremal increases to sigma at rho and decreases afterwards, so a point
x1 slightly beyond rho shares its value with a mirror point x2 < rho.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BracketError, DomainError
from .polyfunc import PolyAnalyticFn
from .radii import (
    BoundProfile,
    DerivAll,
    DerivNormalized,
    ModulusAll,
    _bisect_decreasing,
    deriv_radii,
)
from .series import DEFAULT_DEGREE, TruncatedTaylorSeries, _require_in_disk, principal_log

FAMILIES = ("deriv", "normalized", "unit_modulus", "classical", "coeff")

_DEGENERATE_TOL = 1e-13
_SERIES_CAP = 4096
#: Radius of the circle on which a witness series is accurate to its tail
#: bound, and on which ``verify`` audits the witness's hypotheses.
AUDIT_RADIUS = 1.0 - 1e-3
_TAIL_TOL = 1e-13  # bound on the truncated tail of a derivative component at AUDIT_RADIUS


@dataclass(frozen=True)
class ExtremalSpec:
    """Selector for one extremal family plus its parameters.

    family          parameters
    --------------  -------------------------------------------
    deriv           profile: DerivAll
    normalized      profile: DerivNormalized
    unit_modulus    order: p >= 2 (all modulus bounds equal 1)
    classical       bound: M > 1
    coeff           bound: M > 1 and power: n >= 2
    """

    family: str
    profile: DerivAll | DerivNormalized | None = None
    order: int | None = None
    bound: float | None = None
    power: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown extremal family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "deriv" and not isinstance(self.profile, DerivAll):
            raise DomainError("the deriv family needs a DerivAll profile")
        if self.family == "normalized" and not isinstance(self.profile, DerivNormalized):
            raise DomainError("the normalized family needs a DerivNormalized profile")
        if self.family == "unit_modulus" and (self.order is None or self.order < 2):
            raise DomainError("the unit_modulus family needs an order p >= 2")
        if self.family in ("classical", "coeff"):
            if self.bound is None or not self.bound > 1.0:
                raise DomainError("bounded-ratio extremals need a modulus bound M > 1")
        if self.family == "coeff" and (self.power is None or self.power < 2):
            raise DomainError("the coeff family needs a power n >= 2")


def _profile_value(b: BoundProfile, z: complex) -> complex:
    """The extremal of ``extremal_fn(b)`` in closed form, the leading log kept exact."""
    lam0 = b.terms.lead
    acc = complex(z) if lam0 is None else lam0 * lam0 * z + (lam0**3 - lam0) * principal_log(1.0 - z / lam0)
    zbar = z.conjugate()
    power = zbar
    for kind, bound in b.terms.components[1:]:
        if kind == "modulus":
            acc += power * z
        else:
            acc -= bound * power * z
        power *= zbar
    return acc


def _bounded_ratio_value(m: float, n: int, z: complex) -> complex:
    u = z ** (n - 1)
    return m * z * (1.0 - m * u) / (m - u)


def extremal_eval(spec: ExtremalSpec, z: complex) -> complex:
    """Closed-form value of the selected extremal at z, |z| <= 1."""
    z = _require_in_disk(z)
    if spec.family in ("deriv", "normalized"):
        return _profile_value(spec.profile, z)
    if spec.family == "unit_modulus":
        return _profile_value(ModulusAll((1.0,) * spec.order), z)
    if spec.family == "classical":
        return _bounded_ratio_value(spec.bound, 2, z)
    return _bounded_ratio_value(spec.bound, spec.power, z)


def _deriv_component_degree(lam0: float) -> int:
    q = AUDIT_RADIUS / lam0
    scale = lam0**3 - lam0
    degree = DEFAULT_DEGREE
    while degree < _SERIES_CAP:
        tail = scale * q ** (degree + 1) / ((degree + 1) * (1.0 - q))
        if tail < _TAIL_TOL:
            break
        degree *= 2
    return min(degree, _SERIES_CAP)


def bounded_deriv_component(lam0: float) -> TruncatedTaylorSeries:
    """Series of the leading extremal component: unit derivative at 0, |A'| < L0 on U.

    Closed form L0^2 z + (L0^3 - L0) log(1 - z/L0); the truncation degree
    grows as L0 approaches 1 so the tail stays below 1e-13 at |z| = AUDIT_RADIUS,
    up to a cap of 4096.
    """
    if not lam0 > 1.0:
        raise DomainError(f"the component needs a derivative bound above 1, got {lam0:g}")
    degree = _deriv_component_degree(lam0)
    scale = lam0**3 - lam0
    coeffs = [0j, 1 + 0j]
    power = 1.0 / (lam0 * lam0)  # (1/L0)^n, running product
    for n in range(2, degree + 1):
        coeffs.append(complex(-scale * power / n))
        power /= lam0
    return TruncatedTaylorSeries(tuple(coeffs))


def extremal_fn(b: BoundProfile) -> PolyAnalyticFn:
    """Series witness of any profile, one component per term.

    A derivative lead gives ``bounded_deriv_component``, a derivative
    bound L_k above it the extremal -L_k z, and the identity and every
    modulus term the identity series (the M = 1 map).
    """
    comps = []
    for k, (kind, bound) in enumerate(b.terms.components):
        if kind != "deriv":
            comps.append(TruncatedTaylorSeries((0j, 1 + 0j)))
        elif k == 0:
            comps.append(bounded_deriv_component(bound))
        else:
            comps.append(TruncatedTaylorSeries((0j, complex(-bound))))
    return PolyAnalyticFn.normalized(comps)


deriv_extremal_fn = normalized_extremal_fn = extremal_fn


def unit_modulus_extremal_fn(p: int) -> PolyAnalyticFn:
    """Series materialization of z + |z|^2 (1 + conj(z) + ... + conj(z)^(p-2))."""
    if p < 1:
        raise DomainError(f"order must be a positive integer, got {p}")
    return extremal_fn(ModulusAll((1.0,) * p))


def coeff_extremal_series(m: float, n: int) -> TruncatedTaylorSeries:
    """Taylor series of the bounded map attaining the coefficient bound at z^n.

    The expansion is z - (M - 1/M) z^n - sum_{j>=2} (M^2-1)/M^j z^((n-1)j+1);
    coefficients decay like M^(1-j), so truncating at ``DEFAULT_DEGREE``
    keeps the tail below 1e-15 on |z| <= 0.99 for M >= 2.
    """
    if not m > 1.0:
        raise DomainError(f"the coefficient extremal needs a modulus bound M > 1, got {m:g}")
    if n < 2:
        raise DomainError(f"the coefficient extremal needs n >= 2, got {n}")
    coeffs = [0j] * (DEFAULT_DEGREE + 1)
    coeffs[1] = 1 + 0j
    j = 1
    power = m  # M^j
    while (n - 1) * j + 1 <= DEFAULT_DEGREE:
        idx = (n - 1) * j + 1
        if j == 1:
            coeffs[idx] = complex(-(m - 1.0 / m))
        else:
            coeffs[idx] = complex(-(m * m - 1.0) / power)
        j += 1
        power *= m
    return TruncatedTaylorSeries(tuple(coeffs))


def real_profile(x: float, b: DerivAll) -> float:
    """Real-axis restriction of the deriv-family extremal.

    Shares the complex evaluation path, so it agrees with
    ``extremal_eval`` on real arguments exactly.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"profile argument must lie in [0, 1], got {x:g}")
    return _profile_value(b, complex(x)).real


def real_profile_derivative(x: float, b: DerivAll) -> float:
    """Closed-form derivative of the real-axis profile; zero exactly at rho."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"profile argument must lie in [0, 1], got {x:g}")
    lam0 = b.lambda0
    total = lam0 * lam0 - (lam0**3 - lam0) / (lam0 - x)
    for k, lam in enumerate(b.lambdas, start=1):
        total -= (k + 1) * lam * x**k
    return total


def _second_profile_zero(b: DerivAll, rho: float) -> float:
    # the profile decreases from sigma > 0 at rho to a nonpositive value at 1
    zero, _ = _bisect_decreasing(lambda x: real_profile(x, b), rho, 1.0)
    return zero


def collision_pair(b: DerivAll, r: float) -> tuple[float, float]:
    """Two abscissae x2 < rho < x1 < r where the extremal takes one value.

    eps starts at half the distance from rho to r, capped at half the
    distance to the profile's second zero when the profile dips
    nonpositive at 1.  A bracket that still lands at the second zero
    within tolerance is degenerate; eps shrinks by half, at most ten
    times, before giving up.
    """
    result = deriv_radii(b)
    rho = result.rho
    if not rho < r <= 1.0:
        raise DomainError(f"collision window needs rho < r <= 1; rho = {rho:.12g}, r = {r:.12g}")
    sigma = real_profile(rho, b)
    eps = 0.5 * (r - rho)
    if real_profile(1.0, b) <= 0.0:
        eps = min(eps, 0.5 * (_second_profile_zero(b, rho) - rho))
    x1 = rho + eps
    gx1 = real_profile(x1, b)
    for _ in range(10):
        if gx1 > _DEGENERATE_TOL:
            break
        eps *= 0.5  # x1 fell at or past the second zero; pull it toward rho
        x1 = rho + eps
        gx1 = real_profile(x1, b)
    if not _DEGENERATE_TOL < gx1 < sigma:
        raise BracketError(
            f"collision bracket degenerate: g(x1) = {gx1:.6g} outside (0, {sigma:.6g}) with eps = {eps:.6g}"
        )
    x2, _ = _bisect_decreasing(lambda x: gx1 - real_profile(x, b), 0.0, rho)
    return x1, x2
