"""Complex truncated Taylor series on the closed unit disk.

A series is a finite coefficient list c0..cN evaluated by Horner
recurrence, at a point or an array of points as ``polyfunc`` evaluates.
Series are the oracles the closed-form witnesses are tested against; no
module of the package builds one.  Series are immutable; operations
return new values.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from .polyfunc import _require_in_disk


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

    @cached_property
    def real(self) -> bool:
        """Whether every coefficient is real, so that the series at conj z is the conjugate of its value at z."""
        return all(c.imag == 0.0 for c in self.coeffs)

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
