"""Extremal functions and sharpness witnesses for the radius bounds.

``extremal_fn`` builds the witness of any profile from its terms, one
closed-form component per term, each giving its value A(z) and
derivative A'(z) over a node array; ``coeff_extremal_series`` is the one
series kept, so the coefficient check has a map to inspect.
``collision_pair`` reproduces the boundary-crossing argument that breaks
univalence just past rho: the real-axis profile of the derivative-family
extremal increases to sigma at rho and decreases afterwards, so a point
x1 slightly beyond rho shares its value with a mirror point x2 < rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BracketError, DomainError
from .polyfunc import PolyAnalyticFn, poly_eval
from .radii import BoundProfile, DerivAll, ModulusAll, _bisect_decreasing, deriv_radii
from .series import DEFAULT_DEGREE, TruncatedTaylorSeries

_DEGENERATE_TOL = 1e-13
#: Radius of the circle on which ``verify`` audits a witness's hypotheses.
AUDIT_RADIUS = 1.0 - 1e-3
_LEAD_TERMS = 60  # x^(n-2)/n for n <= 60 sums log(1 - x) to below 2^-53 relative for |x| < 1/2
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for splitting a double into two 26-bit halves


def _one_minus_product(a: float, x: np.ndarray) -> np.ndarray:
    """1 - a x for real arrays, rounded once: the product's rounding error is kept (Dekker)."""
    p = a * x
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    err = ((a_hi * x_hi - p) + a_hi * x_lo + a_lo * x_hi) + a_lo * x_lo
    return (1.0 - p) - err


def _unit_gap(c: float, z: np.ndarray) -> np.ndarray:
    """(c - z)/c for real c, divided part by part so that it is exactly 1 at z = 0.

    numpy's complex division multiplies by a reciprocal, which can leave c/c != 1.
    """
    return (c - z.real) / c - 1j * (z.imag / c)


class _ClosedForm:
    """A component built from no series terms.

    The empty ``coeffs`` is read only by ``perfbench/trace_layers``; delete
    this class when the benchmark traces ``value`` instead (ROADMAP).
    """

    coeffs: ClassVar[tuple[complex, ...]] = ()


@dataclass(frozen=True)
class DerivLead(_ClosedForm):
    """A(z) = L^2 z + (L^3 - L) log(1 - z/L): A(0) = 0, A'(0) = 1 and |A'| < L on the disk.

    The two terms of A have size L^2 |z| and cancel to about |z|, so for
    |z/L| < 1/2 A is summed as z - (L - 1/L) z^2 sum_{n>=2} (z/L)^(n-2)/n,
    whose terms do not cancel.  A'(z) = (1 - L z)/((L - z)/L) keeps the
    rounding error of L Re(z), so it stays accurate next to its zero 1/L.
    """

    lam: float

    def value(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        lam = self.lam
        x = z / lam
        tail = np.zeros_like(z)
        for n in range(_LEAD_TERMS, 1, -1):
            tail = tail * x + 1.0 / n
        # (L - 1)(L + 1) keeps L - 1/L and L^3 - L accurate as L approaches 1
        gap = (lam - 1.0) * (lam + 1.0)
        series = z - gap / lam * z * z * tail
        closed = lam * lam * z + lam * gap * np.log(1.0 - x)
        return np.where(np.abs(x) < 0.5, series, closed)

    def derivative(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        lam = self.lam
        return (_one_minus_product(lam, z.real) - 1j * (lam * z.imag)) / _unit_gap(lam, z)


@dataclass(frozen=True)
class BoundedRatio(_ClosedForm):
    """The classical extremal A(z) = M z (1 - M z)/(M - z) of a modulus bound M > 1.

    A(0) = 0, A'(0) = 1 and |A| <= M on the disk, with |A| = M on its
    boundary.  A = z (1 - M z)/((M - z)/M) and A' = (1 - 2 M z + z^2)/((M - z)/M)^2
    divide by a number near 1, so no intermediate grows much beyond M.
    """

    m: float

    def value(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z * ((1.0 - self.m * z) / _unit_gap(self.m, z))

    def derivative(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        gap = _unit_gap(self.m, z)
        return (1.0 - 2.0 * self.m * z + z * z) / (gap * gap)


def bounded_deriv_component(lam0: float) -> DerivLead:
    """The leading extremal component of a derivative bound L0 > 1, in closed form."""
    if not lam0 > 1.0:
        raise DomainError(f"the component needs a derivative bound above 1, got {lam0!r}")
    return DerivLead(lam0)


def extremal_fn(b: BoundProfile) -> PolyAnalyticFn:
    """Closed-form witness of any profile, one component per term.

    A derivative lead gives ``bounded_deriv_component``, a derivative
    bound L_k above it the extremal -L_k z, a modulus bound M > 1 the
    classical extremal M z (1 - M z)/(M - z), and the identity and a
    modulus bound M = 1 the identity.
    """
    comps = []
    for k, (kind, bound) in enumerate(b.terms.components):
        if kind == "deriv" and k == 0:
            comps.append(bounded_deriv_component(bound))
        elif kind == "deriv":
            comps.append(TruncatedTaylorSeries((0j, complex(-bound))))
        elif kind == "modulus" and bound > 1.0:
            comps.append(BoundedRatio(bound))
        else:
            comps.append(TruncatedTaylorSeries((0j, 1 + 0j)))
    return PolyAnalyticFn.normalized(comps)


deriv_extremal_fn = normalized_extremal_fn = extremal_fn


def unit_modulus_extremal_fn(p: int) -> PolyAnalyticFn:
    """The witness z + |z|^2 (1 + conj(z) + ... + conj(z)^(p-2)) of unit modulus bounds."""
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
        raise DomainError(f"the coefficient extremal needs a modulus bound M > 1, got {m!r}")
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

    Evaluates the witness itself, so it agrees with ``extremal_fn(b)`` on
    real arguments exactly.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"profile argument must lie in [0, 1], got {x!r}")
    return poly_eval(extremal_fn(b), complex(x)).real


def real_profile_derivative(x: float, b: DerivAll) -> float:
    """Closed-form derivative of the real-axis profile; zero exactly at rho."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"profile argument must lie in [0, 1], got {x!r}")
    lam0 = b.lambda0
    total = lam0 * lam0 - (lam0**3 - lam0) / (lam0 - x)
    for k, lam in enumerate(b.lambdas, start=1):
        total -= (k + 1) * lam * x**k
    return total


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
        raise DomainError(f"collision window needs rho < r <= 1; rho = {rho!r}, r = {r!r}")
    witness = extremal_fn(b)  # built once for every bisection step

    def profile(x: float) -> float:
        return poly_eval(witness, complex(x)).real

    sigma = profile(rho)
    eps = 0.5 * (r - rho)
    if profile(1.0) <= 0.0:
        # the profile decreases from sigma > 0 at rho to a nonpositive value at 1
        second_zero, _ = _bisect_decreasing(profile, rho, 1.0)
        eps = min(eps, 0.5 * (second_zero - rho))
    x1 = rho + eps
    gx1 = profile(x1)
    for _ in range(10):
        if gx1 > _DEGENERATE_TOL:
            break
        eps *= 0.5  # x1 fell at or past the second zero; pull it toward rho
        x1 = rho + eps
        gx1 = profile(x1)
    if not _DEGENERATE_TOL < gx1 < sigma:
        raise BracketError(
            f"collision bracket degenerate: g(x1) = {gx1!r} outside (0, {sigma!r}) with eps = {eps!r}"
        )
    x2, _ = _bisect_decreasing(lambda x: gx1 - profile(x), 0.0, rho)
    return x1, x2
