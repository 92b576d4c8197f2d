"""Brute-force helpers and reference evaluations the tests use to cross-check the package.

The helpers deliberately avoid the library's own derivative and root-finding
code paths: derivatives come from central differences, roots from plain
grid scans.  Accuracy is modest (1e-6-ish) but independent.

The references evaluate at one point in plain Python complex arithmetic:
they are the package's former one-point functions, kept unchanged, and the
package's evaluations, which take a point or an array through one path,
must agree with them point by point.  ``plain_bisect`` is the package's
former root finder, plain bisection, which the replaying solver must
match bit for bit.  ``chunked_crossings`` is the package's former boundary
crossing scan, over every edge pair of overlapping 16-edge chunks; the
sweep that replaced it must find the same crossings among the edge pairs
whose boxes meet.

``record_solver_margins`` hooks the margin ``radii`` builds for each
profile (``radii._margin_of``), so that a test sees every evaluation the
solver makes.

``Spirallike`` is the beta-spirallike map, a univalent component whose
boundary images are simple but not star-shaped about 0, so that a boundary
check on it runs the crossing sweep.

``jsonable`` is the package's former rounding pass over a JSON document,
which ``json.dumps(..., indent=2)`` then laid out: the CLI's one-walk JSON
writer must print what the two did.

``coeff_extremal_series`` and ``coefficient_bound_check`` are the
coefficient form of the modulus-bound extremal and the check of
|c_n| <= M - 1/M on it: the classical closed form is tested against the
series, and the acceptance ledger against the bound.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from polylandau import TruncatedTaylorSeries, VerificationReport
from polylandau import radii as radii_module
from polylandau.errors import BracketError, DomainError


def fd_wirtinger(fn, z: complex, h: float = 1e-6) -> tuple[complex, complex]:
    """Central-difference estimate of (dF/dz, dF/dzbar) at z."""
    fx = (fn(z + h) - fn(z - h)) / (2.0 * h)
    fy = (fn(z + 1j * h) - fn(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def fd_zbar(fn, z: complex, h: float = 1e-3) -> complex:
    return fd_wirtinger(fn, z, h)[1]


def fd_zbar_power(fn, z: complex, p: int, h: float = 1e-3) -> complex:
    """p-fold conjugate-Wirtinger derivative by nested differencing.

    An order-p poly-analytic function is annihilated by this operator;
    nesting loses roughly a factor 1/h of precision per level, so keep
    p small and the tolerance loose.
    """
    if p <= 1:
        return fd_zbar(fn, z, h)
    return fd_zbar(lambda w: fd_zbar_power(fn, w, p - 1, h), z, h)


def scan_root(g, lo: float, hi: float, coarse: float = 1e-3, fine: float = 1e-7) -> float | None:
    """First sign change of a function positive at lo, by two-stage scan.

    Returns the midpoint of the final fine cell (error about fine/2), or
    None when g stays positive through hi.
    """
    if not g(lo) > 0.0:
        raise ValueError("scan_root expects g(lo) > 0")
    a = lo
    x = lo + coarse
    while x < hi:
        if g(x) <= 0.0:
            break
        a = x
        x += coarse
    else:
        if g(hi) > 0.0:
            return None
        x = hi
    b = min(x, hi)
    x = a + fine
    while x < b:
        if g(x) <= 0.0:
            return x - 0.5 * fine
        x += fine
    return b - 0.5 * fine


def deriv_lead_coeffs(lam: float, degree: int) -> tuple[complex, ...]:
    """Taylor coefficients of L^2 z + (L^3 - L) log(1 - z/L) up to z^degree.

    c0 = 0, c1 = 1 and c_n = -(L^3 - L) / (n L^n) for n >= 2.
    """
    scale = lam**3 - lam
    coeffs = [0j, 1 + 0j]
    power = 1.0 / (lam * lam)  # (1/L)^n, running product
    for n in range(2, degree + 1):
        coeffs.append(complex(-scale * power / n))
        power /= lam
    return tuple(coeffs)


def jsonable(value, digits: int):
    """value with every float rounded to digits significant digits through its text, a complex as the list of
    its two parts and a tuple as a list; any other type than JSON's and these is a TypeError."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")  # inf, -inf and nan print as names that float reads back
    if isinstance(value, complex):
        return [jsonable(value.real, digits), jsonable(value.imag, digits)]
    if isinstance(value, dict):
        return {k: jsonable(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, digits) for v in value]
    kind = type(value)
    raise TypeError(f"no JSON form for a {kind.__module__}.{kind.__qualname__}")


# --- one-point references ---------------------------------------------------------------------

_DISK_SLACK = 1e-9  # tolerate boundary roundoff in |z| <= 1 checks
_LEAD_HORNER = tuple(1.0 / n for n in range(60, 1, -1))  # 1/n, highest n first


def _require_in_disk(z: complex) -> complex:
    z = complex(z)
    if abs(z) > 1.0 + _DISK_SLACK:
        raise DomainError(f"evaluation point must satisfy |z| <= 1, got |z| = {abs(z)!r}")
    return z


def series_eval(s, z: complex) -> complex:
    """Evaluate sum c_n z^n by Horner recurrence; requires |z| <= 1."""
    z = _require_in_disk(z)
    acc = 0j
    for c in reversed(s.coeffs):
        acc = acc * z + c
    return acc


def poly_eval(F, z: complex) -> complex:
    z = _require_in_disk(z)
    zbar = z.conjugate()
    acc = 0j
    power = 1 + 0j  # conj(z)^k by running product
    for comp in F.components:
        acc += power * complex(comp.value(z))
        power *= zbar
    return acc


def wirtinger_z(F, z: complex) -> complex:
    """d/dz derivative: differentiates components, leaves conj(z)^k alone."""
    z = _require_in_disk(z)
    zbar = z.conjugate()
    acc = 0j
    power = 1 + 0j
    for comp in F.components:
        acc += power * complex(comp.derivative(z))
        power *= zbar
    return acc


def wirtinger_zbar(F, z: complex) -> complex:
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


def jacobian(F, z: complex) -> float:
    """|F_z|^2 - |F_zbar|^2; positive exactly where F is sense-preserving."""
    fz, fzb = abs(wirtinger_z(F, z)), abs(wirtinger_zbar(F, z))
    return fz * fz - fzb * fzb


def logp_eval(f, z: complex) -> complex:
    return cmath.exp(poly_eval(f.log_part, z))


def deriv_lead_value(lam: float, z: complex) -> complex:
    """The derivative-bound lead L^2 z + (L^3 - L) log(1 - z/L) at one point, rounded as numpy rounds it on a real z.

    numpy divides z by L through the reciprocal 1/L, so x does too.
    """
    inv = 1.0 / lam
    x = complex(z.real * inv, z.imag * inv)
    gap = (lam - 1.0) * (lam + 1.0)
    if abs(x) < 0.5:
        # on the real axis every imaginary part stays 0, so float arithmetic rounds as complex does
        step = x.real if x.imag == 0.0 else x
        tail = 0.0
        for c in _LEAD_HORNER:
            tail = tail * step + c
        return z - gap / lam * z * z * tail
    return lam * lam * z + lam * gap * complex(np.log(1.0 - x))


def record_solver_margins(monkeypatch, points: list) -> None:
    """Append to points the r of every evaluation of the margins that ``radii`` builds while monkeypatch holds."""
    factory = radii_module._margin_of

    def recorded_factory(b):
        margin = factory(b)

        def recorded(r):
            points.append(r)
            return margin(r)

        return recorded

    monkeypatch.setattr(radii_module, "_margin_of", recorded_factory)


def plain_bisect(g, lo: float, hi: float):
    """Bisection on a strictly decreasing g with g(lo) > 0 >= g(hi).

    Returns (root, iterations).  Bisects until the midpoint is no longer
    strictly inside the bracket, so every step shrinks it by at least one
    float; a bracket within [0, 1] takes at most 1074 steps.
    """
    if not lo < hi:
        raise BracketError(f"empty bracket: lo = {lo!r}, hi = {hi!r}")
    glo = g(lo)
    ghi = g(hi)
    if not glo > 0.0:
        raise BracketError(f"bracket violation: g({lo!r}) = {glo!r} must be positive")
    if ghi > 0.0:
        raise BracketError(f"bracket violation: g({hi!r}) = {ghi!r} must be <= 0")
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # float spacing exhausted
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


_EDGE_CHUNK = 16  # edges per bounding box in chunked_crossings


def chunked_crossings(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of non-adjacent edges of the closed polygon v that cross.

    Edge i runs from vertex i to vertex i + 1 (mod m).  Edges are taken in
    chunks, and only the chunk pairs whose bounding boxes overlap are
    tested edge by edge; two crossing edges always lie in such a pair.
    A crossing through a vertex, or along a line two edges share, counts
    as none.
    """
    m = len(v)
    end = np.roll(v, -1)
    edge = end - v
    starts = np.arange(0, m, _EDGE_CHUNK)
    lo_x = np.minimum.reduceat(np.minimum(v.real, end.real), starts)
    hi_x = np.maximum.reduceat(np.maximum(v.real, end.real), starts)
    lo_y = np.minimum.reduceat(np.minimum(v.imag, end.imag), starts)
    hi_y = np.maximum.reduceat(np.maximum(v.imag, end.imag), starts)
    overlap = (
        (lo_x[:, None] <= hi_x[None, :]) & (lo_x[None, :] <= hi_x[:, None])
        & (lo_y[:, None] <= hi_y[None, :]) & (lo_y[None, :] <= hi_y[:, None])
    )
    first, second = np.nonzero(np.triu(overlap))
    offsets = np.arange(_EDGE_CHUNK)
    i, j = np.broadcast_arrays(
        (starts[first][:, None] + offsets)[:, :, None],
        (starts[second][:, None] + offsets)[:, None, :],
    )
    i, j = i.ravel(), j.ravel()
    keep = (j < m) & (j - i >= 2) & ~((i == 0) & (j == m - 1))
    i, j = i[keep], j[keep]

    def turn(a, b):
        # Im(conj(a) b): positive when b points left of a
        return a.real * b.imag - a.imag * b.real

    ei, ej, d = edge[i], edge[j], v[j] - v[i]
    both = turn(ei, ej)
    start_j, start_i = turn(ei, d), turn(d, ej)  # vertex j seen from edge i, vertex i from edge j
    cross = (start_j * (start_j + both) < 0) & (start_i * (start_i - both) < 0)
    return i[cross], j[cross]


# --- the coefficient-bound extremal ------------------------------------------------------------

#: Truncation degree of ``coeff_extremal_series``: its coefficients decay
#: geometrically, leaving a tail below 1e-15 at |z| <= 0.99 for M >= 2.
DEFAULT_DEGREE = 64


class Spirallike:
    """f(z) = z (1 - z)^(-2 e^{i beta} cos beta), at a point or at every point of an array.

    For |beta| < pi/2 the map is beta-spirallike, hence univalent on the unit
    disk, but not starlike: near beta = pi/2 the image of |z| = r spirals
    about 0 and is not star-shaped about it.
    """

    def __init__(self, beta: float) -> None:
        self.power = -2.0 * cmath.exp(1j * beta) * math.cos(beta)

    def value(self, z):
        return z * (1.0 - z) ** self.power

    def derivative(self, z):
        return (1.0 - z) ** (self.power - 1.0) * (1.0 - z - self.power * z)


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


def coefficient_bound_check(
    series: TruncatedTaylorSeries,
    m: float,
    margin: float = 1e-9,
) -> VerificationReport:
    """Checks |c_n| <= M - 1/M for n >= 2 on a normalized bounded map's series."""
    if not m >= 1.0:
        raise DomainError(f"modulus bound must satisfy M >= 1, got {m!r}")
    c = series.coeffs
    if abs(c[0]) > 1e-12 or abs(c[1] - 1.0) > 1e-12:
        raise DomainError("coefficient check needs a normalized series: c0 = 0, c1 = 1")
    limit = m - 1.0 / m
    worst = -np.inf
    worst_n = 2
    for n in range(2, len(c)):
        excess = abs(c[n]) - limit
        if excess > worst:
            worst = excess
            worst_n = n
    if len(c) <= 2:
        worst = -limit
    measured = -worst
    passed = bool(measured >= -margin)
    return VerificationReport(
        check_name="coefficient-bound",
        passed=passed,
        measured_margin=float(measured),
        witness=None if passed else (complex(worst_n),),
        note=f"limit M - 1/M = {limit:.12g}",
    )
