"""Complex truncated Taylor series on the closed unit disk.

A series is a finite coefficient list c0..cN evaluated by Horner
recurrence; it holds the coefficient-bound extremal and the oracles the
closed-form witnesses are tested against.  Series are immutable;
operations return new values.

Every evaluation in the package takes one point or an array of points
through the same arithmetic.  ``_require_in_disk`` keeps a point a Python
number, a real one real, and makes anything else a complex array;
``_cmul`` multiplies as Python multiplies two complex numbers, so a point
and an array round alike; ``_ufunc`` applies a numpy function and hands a
point back as a Python number.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from ._lazy import lazy_numpy
from .errors import DomainError

np = lazy_numpy()

#: Default truncation degree for series built from closed forms whose
#: coefficients decay geometrically (tail below 1e-15 at |z| <= 0.99).
DEFAULT_DEGREE = 64

_DISK_SLACK = 1e-9  # tolerate boundary roundoff in |z| <= 1 checks


def _require_in_disk(z):
    """z as a Python float or complex when it is one number, else as a complex array; every |z| must be at most 1.

    A real point stays real, so sums on the real axis run in real arithmetic,
    which rounds there as complex arithmetic does.
    """
    if isinstance(z, (int, float, complex)):
        z = complex(z) if isinstance(z, complex) else float(z)
        worst = abs(z)
    else:
        z = np.asarray(z, dtype=complex)
        worst = float(np.max(np.abs(z), initial=0.0))
    if worst > 1.0 + _DISK_SLACK:
        raise DomainError(f"evaluation point must satisfy |z| <= 1, got |z| = {worst!r}")
    return z


def _cmul(a, b):
    """a * b at a point or elementwise, rounded as Python's complex product.

    numpy's complex multiply may fuse a multiply with an add, which rounds
    differently.  In a * Re(b) + a * (i Im(b)) each product has a factor
    with a zero part, so it rounds once per component whether fused or
    not, and the sum then rounds as Python's does.
    """
    return a * (b.real + 0j) + a * (1j * b.imag)


def _ufunc(f, w):
    """The numpy function f at w, a point or an array; a point's numpy scalar comes back as a Python number."""
    out = f(w)
    return out if out.ndim else out.item()


@dataclass(frozen=True)
class TruncatedTaylorSeries:
    """Coefficients c0..cN of an analytic function, degree N >= 1."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) < 2:
            raise DomainError("a series needs degree >= 1 (at least coefficients c0 and c1)")
        if not all(cmath.isfinite(c) for c in coeffs):
            raise DomainError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, z):
        """The series at a point or at every point of an array; requires |z| <= 1."""
        return series_eval(self, z)

    @cached_property
    def _derivative_series(self) -> TruncatedTaylorSeries:
        """The derivative series, built on first use; a frozen dataclass without slots keeps it in ``__dict__``."""
        return series_derivative(self)

    def derivative(self, z):
        """The derivative series at a point or at every point of an array; requires |z| <= 1."""
        return self._derivative_series.value(z)


def series_eval(s: TruncatedTaylorSeries, z):
    """sum c_n z^n by Horner recurrence at a point or at every point of an array; requires |z| <= 1.

    Each step multiplies as ``_cmul`` does, with z split into its parts once.
    """
    z = _require_in_disk(z)
    z_re, z_im = z.real + 0j, 1j * z.imag
    acc = s.coeffs[-1]
    for c in reversed(s.coeffs[:-1]):
        acc = acc * z_re + acc * z_im + c
    return acc


def series_derivative(s: TruncatedTaylorSeries) -> TruncatedTaylorSeries:
    """Coefficientwise derivative [c1, 2*c2, ...], zero-padded to degree >= 1."""
    coeffs = [n * c for n, c in enumerate(s.coeffs)][1:]
    if len(coeffs) < 2:
        coeffs.append(0j)
    return TruncatedTaylorSeries(tuple(coeffs))
