"""Independent numerical checks for the radius computations.

Everything here re-derives its verdict from function evaluations on
grids or random samples; nothing consults the closed-form margin
functions or root finders, so a bug there cannot vouch for itself.
Only the parameter dataclasses and the witnesses' audit radius are
shared, as plain data.  Witness components are read through their
``value`` and ``derivative`` alone, at 0 for the normalisation and on
the audit grid for the bounds.

All checks are necessary-condition tests: a pass means no counterexample
was found at the sampled resolution, not a proof.  A failed report
always carries a concrete witness point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .extremal import AUDIT_RADIUS
from .polyfunc import Component, LogPAnalyticFn, PolyAnalyticFn, logp_eval_array, poly_eval_array
from .radii import BoundProfile
from .series import TruncatedTaylorSeries

_PAIR_BLOCK = 256


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling resolution for disk-based checks."""

    radial_count: int = 32
    angular_count: int = 64
    margin: float = 1e-9

    def __post_init__(self) -> None:
        if self.radial_count < 8 or self.angular_count < 8:
            raise DomainError("grid needs at least 8 radial and 8 angular samples")
        if not self.margin >= 0.0:
            raise DomainError(f"grid margin must be nonnegative, got {self.margin!r}")


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    passed: bool
    measured_margin: float
    witness: tuple[complex, ...] | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise DomainError("a failed report must carry a witness")


def _disk_grid(r: float, grid: GridSpec) -> np.ndarray:
    radii = r * np.arange(1, grid.radial_count + 1) / grid.radial_count
    angles = 2.0 * np.pi * np.arange(grid.angular_count) / grid.angular_count
    pts = radii[:, None] * np.exp(1j * angles)[None, :]
    return pts.ravel()


def _eval_at(fn: Callable[[complex], complex], pts: np.ndarray) -> np.ndarray:
    """fn at every point: one array pass for package functions, a loop for plain callables."""
    if isinstance(fn, PolyAnalyticFn):
        return poly_eval_array(fn, pts)
    if isinstance(fn, LogPAnalyticFn):
        return logp_eval_array(fn, pts)
    return np.array([fn(complex(z)) for z in pts], dtype=complex)


def univalence_grid_check(
    fn: Callable[[complex], complex],
    r: float,
    grid: GridSpec = GridSpec(),
    extra_points: Sequence[complex] = (),
) -> VerificationReport:
    """Pairwise injectivity scan on a polar grid inside |z| < r.

    Measures min |F(z) - F(w)| / |z - w| over all grid pairs; passes iff
    that ratio stays at or above the grid margin.  extra_points join the
    grid, which lets a caller plant a suspected collision.  Pairs closer
    than 1e-15 are skipped; a grid with no other pair is a DomainError.
    """
    if not 0.0 < r:
        raise DomainError(f"univalence check needs r > 0, got {r!r}")
    pts = _disk_grid(r, grid)
    if extra_points:
        pts = np.concatenate([pts, np.asarray(list(extra_points), dtype=complex)])
    vals = _eval_at(fn, pts)
    n = len(pts)
    best = np.inf
    best_pair = (pts[0], pts[0])
    compared = False
    for start in range(0, n, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n)
        # columns before start pair with earlier rows only, so this block skips them
        dz = np.abs(pts[start:stop, None] - pts[None, start:])
        dv = np.abs(vals[start:stop, None] - vals[None, start:])
        # keep the global upper triangle only, and skip near-coincident nodes
        cols = np.arange(start, n)[None, :]
        rows = np.arange(start, stop)[:, None]
        mask = (cols > rows) & (dz > 1e-15)
        if not mask.any():
            continue
        compared = True
        ratio = np.where(mask, dv / np.where(dz > 0, dz, 1.0), np.inf)
        idx = np.unravel_index(np.argmin(ratio), ratio.shape)
        if ratio[idx] < best:
            best = float(ratio[idx])
            best_pair = (complex(pts[start + idx[0]]), complex(pts[start + idx[1]]))
    if not compared:
        raise DomainError(
            f"univalence grid collapsed: all {n} nodes in |z| < {r:.6g} lie within 1e-15 of each other"
        )
    passed = bool(best >= grid.margin)
    return VerificationReport(
        check_name="univalence-grid",
        passed=passed,
        measured_margin=best,
        witness=None if passed else best_pair,
        note=f"min difference quotient over {n} nodes",
    )


def schlicht_coverage_check(
    fn: Callable[[complex], complex],
    rho: float,
    sigma: float,
    boundary_samples: int = 512,
    margin: float = 1e-9,
) -> VerificationReport:
    """Checks the image of |z| < rho covers the disk of radius sigma.

    For a univalent map with fn(0) = 0 the image boundary is the image of
    the circle |z| = rho, so coverage holds iff min |fn| on that circle
    is at least sigma.  Requires fn(0) = 0 up to 1e-12.
    """
    if not (0.0 < rho and 0.0 < sigma):
        raise DomainError(f"coverage check needs rho > 0 and sigma > 0, got {rho!r}, {sigma!r}")
    origin = abs(fn(0j))
    if origin > 1e-12:
        raise DomainError(f"coverage check needs fn(0) = 0, got |fn(0)| = {origin!r}")
    angles = 2.0 * np.pi * np.arange(boundary_samples) / boundary_samples
    pts = rho * np.exp(1j * angles)
    vals = np.abs(_eval_at(fn, pts))
    k = int(np.argmin(vals))
    measured = float(vals[k]) - sigma
    passed = bool(measured >= -margin)
    return VerificationReport(
        check_name="schlicht-coverage",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(pts[k]),),
        note=f"min boundary modulus {float(vals[k]):.12g} against target {sigma:.12g}",
    )


def deriv_bound_check(
    component: Component,
    bound: float,
    grid: GridSpec = GridSpec(),
) -> VerificationReport:
    """Checks |A'(z)| <= bound on a grid approaching |z| = 1."""
    if not bound > 0.0:
        raise DomainError(f"derivative bound must be positive, got {bound!r}")
    pts = _disk_grid(AUDIT_RADIUS, grid)
    vals = np.abs(component.derivative(pts))
    k = int(np.argmax(vals))
    worst = float(vals[k])
    measured = bound - worst
    passed = bool(measured >= 0.0)
    return VerificationReport(
        check_name="deriv-bound",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(pts[k]),),
        note=f"max |derivative| {worst:.12g} against bound {bound:.12g}",
    )


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


def exp_disk_check(sigma: float, samples: int = 10000, seed: int = 0) -> VerificationReport:
    """Checks the disk centered at cosh(sigma) of radius sinh(sigma) sits in exp of |w| < sigma.

    Draws uniform samples from that disk and requires every principal
    logarithm to land strictly inside |w| < sigma.  Meaningful only for
    0 < sigma < 1, where the disk stays in the right half plane.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"exp-disk check needs 0 < sigma < 1, got {sigma!r}")
    rng = np.random.default_rng(seed)
    u = np.sqrt(rng.uniform(size=samples))
    t = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    w = np.cosh(sigma) + np.sinh(sigma) * u * np.exp(1j * t)
    logs = np.abs(np.log(w))
    k = int(np.argmax(logs))
    measured = sigma - float(logs[k])
    passed = bool(measured > 0.0)
    return VerificationReport(
        check_name="exp-disk",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(w[k]),),
        note=f"max |log w| {float(logs[k]):.12g} against sigma {sigma:.12g}",
    )


def monotonicity_check(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    samples: int = 1000,
) -> VerificationReport:
    """Checks g decreases strictly at consecutive sample points on [lo, hi]."""
    if not lo < hi:
        raise DomainError(f"monotonicity check needs lo < hi, got [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, samples)
    vals = np.array([g(float(x)) for x in xs])
    drops = vals[:-1] - vals[1:]
    k = int(np.argmin(drops))
    measured = float(drops[k])
    passed = bool(measured > 0.0)
    return VerificationReport(
        check_name="monotonicity",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(xs[k]), complex(xs[k + 1])),
        note=f"smallest consecutive drop over {samples} samples",
    )


def _max_modulus(comp: Component, grid: GridSpec) -> float:
    return float(np.max(np.abs(comp.value(_disk_grid(AUDIT_RADIUS, grid)))))


def hypothesis_audit(fn: PolyAnalyticFn, b: BoundProfile, grid: GridSpec = GridSpec()) -> VerificationReport:
    """Checks fn satisfies the normalization and bound hypotheses encoded in b.

    Each component must vanish at 0, the leading component and every
    modulus-bounded one must have derivative 1 there, and each component
    must meet the bound of its term.  The identity lead is the Schwarz
    case |A_0'| <= 1, which with A_0'(0) = 1 holds only for A_0(z) = z.
    """
    if fn.order != b.order:
        raise DomainError(f"profile expects order {b.order}, function has order {fn.order}")
    problems: list[str] = []
    for k, (comp, (kind, bound)) in enumerate(zip(fn.components, b.terms.components)):
        if abs(comp.value(0j)) > 1e-12:
            problems.append(f"component {k} does not vanish at 0")
        if (k == 0 or kind == "modulus") and abs(comp.derivative(0j) - 1.0) > 1e-12:
            problems.append(f"component {k} linear coefficient is not 1")
        if kind == "modulus":
            worst = _max_modulus(comp, grid)
            if worst > bound + grid.margin:
                problems.append(f"component {k} modulus exceeds {bound!r} by {worst - bound:.3g}")
        elif bound == 0.0:
            worst = _max_modulus(comp, grid)
            if worst > grid.margin:
                problems.append(f"component {k} should vanish, max modulus {worst!r}")
        else:
            report = deriv_bound_check(comp, bound, grid)
            if not report.passed:
                problems.append(f"component {k} derivative exceeds {bound!r} by {-report.measured_margin:.3g}")
    passed = not problems
    return VerificationReport(
        check_name="hypothesis-audit",
        passed=passed,
        measured_margin=0.0 if passed else -float(len(problems)),
        witness=None if passed else (complex(len(problems)),),
        note="; ".join(problems) if problems else "all hypotheses hold at the sampled resolution",
    )
