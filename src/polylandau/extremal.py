"""Extremal functions and sharpness witnesses for the radius bounds.

``extremal_fn`` builds the witness of any profile from its terms, one
closed-form component per term, each giving its value A(z) and
derivative A'(z) over a node array.  A component writes only into arrays
it has made, and no output aliases the array being read: the lead's
series takes turns between two buffers of its own (``_lead_series``).
``collision_pair`` reproduces the boundary-crossing argument that breaks
univalence just past rho: the real-axis profile of the derivative-family
extremal is the concave integral s of the margin, rising to sigma at rho
and falling after it, so a point x1 beyond rho shares its value with a
mirror point x2 < rho.
``reversal_point`` shows the Schwarz-profile witness reversing sense just
past rho: its Jacobian turns negative on the real axis there.  Both take
the witness and rho from their caller, which has solved and built them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ._lazy import lazy_module
from .errors import BracketError, DomainError
from .polyfunc import PolyAnalyticFn, _ufunc, jacobian, poly_eval
from .radii import ModulusAll, Profile, _bisect_decreasing, _lead_bound

np = lazy_module("numpy")

_LEAD_TERMS = 60  # x^(n-2)/n for n <= 60 sums log(1 - x) to below 2^-53 relative for |x| < 1/2
_LEAD_HORNER = tuple(1.0 / n for n in range(_LEAD_TERMS, 1, -1))  # 1/n, highest n first
_REVERSAL_SAMPLES = 64  # points past rho at which reversal_point evaluates the Jacobian
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for splitting a double into two 26-bit halves


def _one_minus_product(a: float, x):
    """1 - a x for a real float or array x, rounded once: the product's rounding error is kept (Dekker)."""
    p = a * x
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    err = ((a_hi * x_hi - p) + a_hi * x_lo + a_lo * x_hi) + a_lo * x_lo
    return (1.0 - p) - err


def _unit_gap(c: float, z):
    """(c - z)/c for real c and a complex or complex array z, divided part by part so that it is exactly 1 at z = 0.

    numpy's complex division multiplies by a reciprocal, which can leave c/c != 1.
    """
    return (c - z.real) / c - 1j * (z.imag / c)


def _lead_series(x):
    """sum_{n>=2} x^(n-2)/n by Horner's rule from its highest term, at a point or at every point of an array.

    At the point 0 the sum is its constant term 1/2, exactly as the loop
    would leave it, so the loop is skipped.  An array's sum runs in two
    buffers that take turns: each step multiplies the buffer it reads by x
    into the other one and adds the coefficient there in place.  An
    output never aliases the array being read: numpy's complex multiply
    may round differently in place, which would let a point's sum depend
    on the array around it.
    """
    if not isinstance(x, np.ndarray):
        if x == 0:
            return type(x)(0.5)  # 0.5 or (0.5+0j), as the loop leaves it at any signed zero
        tail = 0.0
        for c in _LEAD_HORNER:
            tail = tail * x + c
        return tail
    tail, spare = np.zeros_like(x), np.empty_like(x)
    for c in _LEAD_HORNER:
        tail, spare = np.multiply(tail, x, out=spare), tail
        tail += c
    return tail


class _ClosedForm:
    """A component built from no series terms: ``Linear``, ``DerivLead`` and ``BoundedRatio``.

    The empty ``coeffs`` is read only by ``perfbench/trace_layers``; delete
    this class when the benchmark traces ``value`` instead (ROADMAP).
    """

    coeffs: ClassVar[tuple[complex, ...]] = ()


@dataclass(frozen=True)
class Linear(_ClosedForm):
    """A(z) = c z and A'(z) = c: the identity (c = 1) and the extremal -L z of a higher derivative bound L.

    Im c = +0, so c z is exact in each part.  A' is the one number c at a
    point and for every point of an array, and adding 0.0 makes its real
    part +0 when L = 0.  Neither checks |z| <= 1; the functionals of
    ``polyfunc`` check their points once.
    """

    c: complex

    def value(self, z):
        return self.c * z

    def derivative(self, z):
        return self.c + 0.0


@dataclass(frozen=True)
class DerivLead(_ClosedForm):
    """A(z) = L^2 z + (L^3 - L) log(1 - z/L): A(0) = 0, A'(0) = 1 and |A'| < L on the disk.

    The two terms of A have size L^2 |z| and cancel to about |z|, so for
    |z/L| < 1/2 A is summed as z - (L - 1/L) z^2 sum_{n>=2} (z/L)^(n-2)/n,
    whose terms do not cancel.  A'(z) = (1 - L z)/((L - z)/L) keeps the
    rounding error of L Re(z), so it stays accurate next to its zero 1/L.
    L^3 must be finite (``bounded_deriv_component``).
    """

    lam: float

    def value(self, z):
        """A at a point or at every point of an array, each point taking the sum or the closed form.

        Both forms are weighted by 1 and 0 at each point, which is exact because both are finite on the
        disk; a point, and an array whose points all take one form, skip the other form.
        """
        lam = self.lam
        x = z * (1.0 / lam)  # numpy divides z by L through the reciprocal 1/L, so a point does too
        near = abs(x) < 0.5  # one bool at a point, a bool array over an array
        if not isinstance(near, bool) and (near.all() or not near.any()):
            near = bool(near.all())  # one form for the whole array
        # (L - 1)(L + 1) keeps L - 1/L and L^3 - L accurate as L approaches 1
        gap = (lam - 1.0) * (lam + 1.0)
        series = closed = 0j
        if near is not False:  # only a point away from 0 skips the sum
            series = z - gap / lam * z * z * _lead_series(x)
        if near is not True:  # only a point near 0 skips the logarithm
            # 1 - x made complex: numpy's real logarithm rounds unlike its complex one on a real point
            closed = lam * lam * z + lam * gap * _ufunc(np.log, (1.0 + 0j) - x)
        return series * near + closed * (1 - near)  # both forms are finite on the disk

    def derivative(self, z):
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

    def value(self, z):
        return z * ((1.0 - self.m * z) / _unit_gap(self.m, z))

    def derivative(self, z):
        gap = _unit_gap(self.m, z)
        return (1.0 - 2.0 * self.m * z + z * z) / (gap * gap)


def bounded_deriv_component(lam0: float) -> DerivLead:
    """The leading extremal component of a derivative bound L0 > 1 whose cube is finite, in closed form."""
    return DerivLead(_lead_bound(lam0, "lambda0"))


def extremal_fn(b: Profile) -> PolyAnalyticFn:
    """Closed-form witness of any profile, one component per term.

    A derivative lead gives ``bounded_deriv_component``, a derivative
    bound L_k above it the extremal -L_k z, a modulus bound M > 1 the
    classical extremal M z (1 - M z)/(M - z), and the identity and a
    modulus bound M = 1 the identity.
    """
    comps = []
    for k, (kind, bound) in enumerate(b.components):
        if kind == "deriv" and k == 0:
            comps.append(bounded_deriv_component(bound))
        elif kind == "deriv":
            comps.append(Linear(complex(-bound)))
        elif kind == "modulus" and bound > 1.0:
            comps.append(BoundedRatio(bound))
        else:
            comps.append(Linear(1 + 0j))
    return PolyAnalyticFn.normalized(comps)


deriv_extremal_fn = normalized_extremal_fn = extremal_fn


def unit_modulus_extremal_fn(p: int) -> PolyAnalyticFn:
    """The witness z + |z|^2 (1 + conj(z) + ... + conj(z)^(p-2)) of unit modulus bounds."""
    if p < 1:
        raise DomainError(f"order must be a positive integer, got {p}")
    return extremal_fn(ModulusAll((1.0,) * p))


def collision_pair(witness: PolyAnalyticFn, rho: float, r: float) -> tuple[float, float]:
    """Two abscissae x2 < rho < x1 < r where the witness takes one value.

    witness is ``extremal_fn`` of a derivative profile (theorems 1 and 5)
    and rho that profile's univalence radius; both are taken as given.
    x1 = rho + eps lies halfway from rho to r, or to the profile's second
    zero when r lies at or past that zero.  The profile is the margin's
    integral s, which is concave (``radii`` module docstring), so s(x1)
    is at least the mean of sigma = s(rho) and s at the far end, which is
    nonnegative: s(x1) >= sigma/2.  An s(x1) outside (0, sigma) can
    come only from rounding and is a ``BracketError``.
    """
    if not rho < r <= 1.0:
        raise DomainError(f"collision window needs rho < r <= 1; rho = {rho!r}, r = {r!r}")

    def profile(x: float) -> float:
        return poly_eval(witness, x).real

    sigma = profile(rho)
    eps = 0.5 * (r - rho)
    if profile(r) <= 0.0:
        # the profile decreases from sigma > 0 at rho, so r lies at or past its second zero and
        # the profile is nonpositive at 1; before that zero the cap could not bind
        second_zero, _, _ = _bisect_decreasing(profile, rho, 1.0)
        eps = min(eps, 0.5 * (second_zero - rho))
    x1 = rho + eps
    gx1 = profile(x1)
    if not 0.0 < gx1 < sigma:
        raise BracketError(f"collision bracket degenerate: g(x1) = {gx1!r} outside (0, {sigma!r}) with eps = {eps!r}")
    x2, _, _ = _bisect_decreasing(lambda x: gx1 - profile(x), 0.0, rho)
    return x1, x2


def reversal_point(witness: PolyAnalyticFn, rho: float, r: float) -> tuple[float, float]:
    """A real x in (rho, r] where the witness reverses sense, and its Jacobian J(x).

    witness is ``extremal_fn`` of a normalized profile (theorems 2 and 6)
    and rho that profile's univalence radius; both are taken as given.
    x is the first of 64 equally spaced points past rho with
    J(x) < 0, or the point of least J when none is negative.  On the real
    axis the Schwarz-profile witness z - sum L_k conj(z)^k z has
    J = m(x) (1 + sum (k-1) L_k x^k) with m the univalence margin, so J
    turns negative right past rho.
    """
    if not rho < r <= 1.0:
        raise DomainError(f"reversal window needs rho < r <= 1; rho = {rho!r}, r = {r!r}")
    xs = rho + (r - rho) * np.arange(1, _REVERSAL_SAMPLES + 1) / _REVERSAL_SAMPLES
    jac = jacobian(witness, xs)
    negative = np.flatnonzero(jac < 0.0)
    k = int(negative[0]) if len(negative) else int(jac.argmin())
    return float(xs[k]), float(jac[k])
