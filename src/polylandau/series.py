"""Complex truncated Taylor series on the closed unit disk.

A series is a finite coefficient list c0..cN evaluated by Horner
recurrence; it holds the coefficient-bound extremal and the oracles the
closed-form witnesses are tested against.  Series are immutable;
operations return new values.  ``series_eval`` evaluates at one point
and is the reference for ``series_eval_array``, which runs the same
recurrence over a whole array of points and agrees with it bit for bit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from ._lazy import lazy_numpy
from .errors import DomainError

np = lazy_numpy()

#: Default truncation degree for series built from closed forms whose
#: coefficients decay geometrically (tail below 1e-15 at |z| <= 0.99).
DEFAULT_DEGREE = 64

_DISK_SLACK = 1e-9  # tolerate boundary roundoff in |z| <= 1 checks


def _require_in_disk(z: complex) -> complex:
    z = complex(z)
    if abs(z) > 1.0 + _DISK_SLACK:
        raise DomainError(f"evaluation point must satisfy |z| <= 1, got |z| = {abs(z)!r}")
    return z


def _require_in_disk_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.size:
        worst = float(np.max(np.abs(z)))
        if worst > 1.0 + _DISK_SLACK:
            raise DomainError(f"evaluation point must satisfy |z| <= 1, got |z| = {worst!r}")
    return z


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

    def value(self, z) -> np.ndarray | complex:
        """The series at one complex point or every point of an array; requires |z| <= 1."""
        return series_eval(self, z) if isinstance(z, complex) else series_eval_array(self, z)

    def derivative(self, z) -> np.ndarray | complex:
        """The derivative series at one complex point or every point of an array; requires |z| <= 1."""
        return series_derivative(self).value(z)


def series_eval(s: TruncatedTaylorSeries, z: complex) -> complex:
    """Evaluate sum c_n z^n by Horner recurrence; requires |z| <= 1."""
    z = _require_in_disk(z)
    acc = 0j
    for c in reversed(s.coeffs):
        acc = acc * z + c
    return acc


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, rounded as Python's complex product.

    numpy's complex multiply may fuse a multiply with an add, which rounds
    differently.  In a * Re(b) + a * (i Im(b)) each product has a factor
    with a zero part, so it rounds once per component whether fused or
    not, and the sum then rounds as Python's does.
    """
    return a * (b.real + 0j) + a * (1j * b.imag)


def series_eval_array(s: TruncatedTaylorSeries, z) -> np.ndarray:
    """Evaluate sum c_n z^n at every point of an array; requires |z| <= 1.

    One in-place Horner pass per coefficient over the whole array, with
    acc * z split as in ``_cmul``, so every value equals ``series_eval``'s
    bit for bit.
    """
    z = _require_in_disk_array(z)
    z_re = z.real + 0j
    z_im = 1j * z.imag
    acc = np.zeros_like(z)
    part = np.empty_like(z)
    for c in reversed(s.coeffs):
        np.multiply(acc, z_re, out=part)
        acc *= z_im
        acc += part
        acc += c
    return acc


def series_derivative(s: TruncatedTaylorSeries) -> TruncatedTaylorSeries:
    """Coefficientwise derivative [c1, 2*c2, ...], zero-padded to degree >= 1."""
    coeffs = [n * c for n, c in enumerate(s.coeffs)][1:]
    if len(coeffs) < 2:
        coeffs.append(0j)
    return TruncatedTaylorSeries(tuple(coeffs))

