"""Independent numerical checks for the radius computations.

Every check re-derives its verdict from function evaluations on grids
or sampled circles; no check calls the root finders.  ``cmd_verify``
runs the univalence and coverage checks, which read the witness alone:
``schlicht_coverage_check`` tests F's covered disk and, for theorems
5-8, exp F's.  ``monotonicity_check`` and ``exp_disk_check`` are library
checks that no command runs: the first samples a closed-form margin and
so vouches for no radius, and the second draws random points to test a
lemma about exp, not the witness.  Only the ``Profile`` terms are
shared, as plain data.  Witness components are read through their
``value`` and ``derivative`` alone, at 0 for the normalisation and on
the audit circle for the bounds.  Every check evaluates on the whole array
of its points, so a callable passed to a check must accept an array.

Outside ``hypothesis_audit``, which reads its own circle, ``cmd_verify``
evaluates the witness once: ``witness_pass`` lays out the Jacobian grid,
the boundary circle and the coverage circle as slices of one array and
takes F_z and F_zbar on the grid and the boundary circle, and F on the
two circles, from one ``poly_jet`` pass; F(0) is read as a point.
``jacobian_grid_check``, ``boundary_simple_check`` and
``schlicht_coverage_check`` only read their slices and report.  For exp F
they read F's values and take exp F's image as expm1(F) = exp F - 1, which
keeps full precision where F is tiny, so every curve lies about 0.

Univalence is checked by degree theory, the argument principle for
sense-preserving maps (Duren, *Harmonic Mappings in the Plane*, 2.3): a
C^1 map with Jacobian |F_z|^2 - |F_zbar|^2 > 0 on a closed disk that takes
the boundary circle to a simple closed curve is injective on the disk.
``jacobian_grid_check`` tests the first condition on the polar grid, in
linear time in its nodes, and ``boundary_simple_check`` the second on the
sampled circle of m samples: in linear time when a one-pass certificate
proves the image star-shaped about the image of 0, and otherwise in about
m log m time, by a crossing scan that sweeps the image's edges sorted by
their boxes.  ``univalence_grid_check``,
the O(n^2) pairwise difference-quotient scan they replace, stays as a
small-n oracle for the tests; it cannot fail a fold unless two nodes land
on a colliding pair.

All checks are sampled tests: a pass means no counterexample was found at
the sampled resolution.  A boundary image that the certificate accepts is
proven simple as a polygon through its samples; between the samples the
check stays a sampled test, and the tangent's turning number covers folds
there.  A failed report always carries a concrete witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._lazy import lazy_module
from .errors import DomainError
from .polyfunc import LogPAnalyticFn, PolyAnalyticFn, poly_eval, poly_jet
from .radii import Profile

np = lazy_module("numpy")

#: Radius of the circle on which ``hypothesis_audit`` checks a witness's bounds.
AUDIT_RADIUS = 1.0 - 1e-3
#: Ulps of a derivative bound L that ``hypothesis_audit`` allows for rounding: on |z| <= ``AUDIT_RADIUS`` the
#: lead's exact supremum lies about 5e-4 (L - 1) below L, which is under one ulp once L - 1 < 4e-13.
_AUDIT_ULPS = 4
_PAIR_BLOCK = 256
#: Least cross product of consecutive vertices, at unit scale, that ``_star_shaped`` accepts: 2^11 times the
#: cross product's own rounding error there.
_STAR_MARGIN = 2.0**-40


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


def _unit_circle(samples: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(samples) / samples
    return np.exp(1j * angles)


def _circle(r: float, samples: int) -> np.ndarray:
    return r * _unit_circle(samples)


def univalence_grid_check(
    fn: Callable[[np.ndarray], np.ndarray],
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
    vals = fn(pts)
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
        idx = np.unravel_index(ratio.argmin(), ratio.shape)
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


def _derivatives_of(fn: PolyAnalyticFn | LogPAnalyticFn) -> PolyAnalyticFn:
    """The map whose Wirtinger derivatives stand for fn's: F itself, or F for exp F."""
    return fn.log_part if isinstance(fn, LogPAnalyticFn) else fn


@dataclass(frozen=True)
class WitnessPass:
    """A witness evaluated once over the Jacobian grid and the two circles that ``cmd_verify`` checks.

    ``nodes`` lays the points out as slices of one array: the grid inside
    |z| <= r, ``samples`` points of the boundary circle |z| = r, and, when
    the pass has a coverage radius, as many of the coverage circle.
    ``fz`` and ``fzbar`` hold F's Wirtinger derivatives on the grid and
    the boundary circle, ``image`` F on the two circles, and ``origin``
    F(0), read as a point.  For exp F (``log``) they are F's too.
    """

    nodes: np.ndarray
    grid: GridSpec
    samples: int
    fz: np.ndarray
    fzbar: np.ndarray
    image: np.ndarray
    origin: complex | None
    log: bool

    @property
    def grid_size(self) -> int:
        return self.grid.radial_count * self.grid.angular_count

    def coverage(self) -> tuple[np.ndarray, complex]:
        """F on the coverage circle and F(0), the values ``schlicht_coverage_check`` reads."""
        if self.origin is None:
            raise DomainError("this pass has no coverage circle")
        return self.image[self.samples:], self.origin


def witness_pass(
    fn: PolyAnalyticFn | LogPAnalyticFn,
    r: float,
    grid: GridSpec = GridSpec(),
    samples: int = 512,
    rho: float | None = None,
) -> WitnessPass:
    """fn's ``WitnessPass`` from one ``poly_jet`` pass: the grid and the boundary circle at r, the coverage circle at rho.

    Each component's derivative is evaluated once, over the grid and the
    boundary circle, and its value once: a higher component's at every
    point, the lead's on the two circles only.  F(0) is evaluated as a
    point, so the origin never joins the lead's array.  rho None leaves
    the coverage circle out.
    """
    if not 0.0 < r:
        raise DomainError(f"univalence checks need r > 0, got {r!r}")
    if samples < 8:
        raise DomainError(f"boundary check needs at least 8 samples, got {samples}")
    if rho is not None and not 0.0 < rho:
        raise DomainError(f"coverage check needs rho > 0, got {rho!r}")
    F = _derivatives_of(fn)
    circle_radii = (r,) if rho is None else (r, rho)
    unit = _unit_circle(samples)  # both circles scale one unit circle, as ``_circle`` scales its own
    nodes = np.concatenate([_disk_grid(r, grid), *(c * unit for c in circle_radii)])
    start = grid.radial_count * grid.angular_count
    image, fz, fzbar = poly_jet(F, nodes, value=slice(start, None), jet=slice(start + samples))
    origin = None if rho is None else poly_eval(F, 0j)
    return WitnessPass(nodes, grid, samples, fz, fzbar, image, origin, fn is not F)


def jacobian_grid_check(jet: WitnessPass) -> VerificationReport:
    """Sense preservation on the pass's polar grid.

    Measures min |F_z| - |F_zbar| over the grid nodes; passes iff it is
    at least the grid margin.  For exp F it reads F's derivatives: the
    Jacobian of exp F is |exp F|^2 times F's, so its sign is F's.
    """
    n = jet.grid_size
    gaps = np.abs(jet.fz[:n]) - np.abs(jet.fzbar[:n])
    k = int(gaps.argmin())
    measured = float(gaps[k])
    passed = bool(measured >= jet.grid.margin)
    return VerificationReport(
        check_name="jacobian-grid",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(jet.nodes[k]),),
        note=f"min |F_z| - |F_zbar| over {n} nodes",
    )


def _unit_scale(a: np.ndarray) -> np.ndarray:
    """a times the power of two that brings max |a| into [1/2, 1).

    The scaling is exact, and it keeps products of a tiny or huge a in range.
    """
    return a * np.ldexp(1.0, -np.frexp(np.abs(a).max())[1])


def _next(a: np.ndarray) -> np.ndarray:
    """a[i + 1], wrapping to a[0] at the last i: each vertex's successor on a closed polygon."""
    return np.concatenate((a[1:], a[:1]))


def _star_shaped(v: np.ndarray) -> bool:
    """Whether the closed polygon v is certified star-shaped about 0, which makes it simple.

    Star-shaped means that each vertex, seen from 0, lies strictly
    counterclockwise of the one before it, and that the vertices go round
    exactly once.  Then edge k lies in the sector, of angle under pi, between
    the rays to vertices k and k + 1; the sectors tile the plane about 0,
    and two non-adjacent edges lie in sectors that share only 0, which
    no edge meets: the polygon is simple (Preparata and Shamos, *Computational
    Geometry*, 1985).

    v is scaled by a power of two, as ``_unit_scale`` scales it, so a tiny
    or huge image keeps its products in range.  At that scale each cross
    product Im(conj(w_k) w_{k+1}) of consecutive vertices must exceed
    ``_STAR_MARGIN``.  Its rounding error, one rounding each in the two
    products and their difference, stays under 2^-51 there, so every exact
    cross product is positive.  With every step a left turn of less than pi,
    the number of turns is the number of steps from Im w < 0 to Im w >= 0,
    which reads only signs and so is exact.  A polygon that fails either
    test is declined, and a False says nothing about it.

    The crossing sweep ``_crossings``, which rounds its own turn products,
    should then find no pair either: two non-adjacent edges are separated on
    both sides by at least one whole sector, whose triangle with 0 has
    an area of at least 2^-41 at unit scale, so the edges stay far apart
    relative to the sweep's rounding, about 2^-50 at that scale.  This is an
    estimate, not a proof, and a Hypothesis test checks it down to sectors
    just above the margin.  A margin on the cross product's rounding
    alone would not do: a sector much thinner than 2^-40 lets the sweep
    report a crossing of the two edges beside it.
    """
    u = _unit_scale(v)
    w = _next(u)
    if not (u.real * w.imag - u.imag * w.real > _STAR_MARGIN).all():
        return False
    return int(np.count_nonzero((u.imag < 0) & (w.imag >= 0))) == 1


def _crossings(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of non-adjacent edges of the closed polygon v that cross, ordered by i, then j.

    Edge i runs from vertex i to vertex i + 1 (mod m).  Only the pairs
    whose closed bounding boxes meet are tested: a sweep over the edges
    sorted by left x (Shamos and Hoey, 1976) pairs each edge with the run
    of later edges that start before its right end, and the y-ranges
    prune that run.  Two crossing edges always have meeting boxes, and on
    a curve each edge meets a few boxes, so the work is about m log m.
    A crossing through a vertex, or along a line two edges share, counts
    as none.
    """
    m = len(v)
    end = _next(v)
    edge = end - v
    lo_x, hi_x = np.minimum(v.real, end.real), np.maximum(v.real, end.real)
    lo_y, hi_y = np.minimum(v.imag, end.imag), np.maximum(v.imag, end.imag)
    order = np.argsort(lo_x)
    # the edges at sorted positions p + 1 .. stop[p] - 1 start at or before edge order[p] ends
    stop = np.searchsorted(lo_x[order], hi_x[order], side="right")
    runs = stop - np.arange(1, m + 1)  # stop[p] > p: edge order[p] starts before it ends
    first = np.repeat(np.arange(m), runs)
    # within each run, the offset of every pair from the run's start
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(runs) - runs, runs)
    e1, e2 = order[first], order[second]
    meet = (lo_y[e1] <= hi_y[e2]) & (lo_y[e2] <= hi_y[e1])
    i, j = np.minimum(e1, e2)[meet], np.maximum(e1, e2)[meet]
    keep = (j - i >= 2) & ~((i == 0) & (j == m - 1))
    i, j = i[keep], j[keep]

    def turn(a, b):
        # Im(conj(a) b): positive when b points left of a
        return a.real * b.imag - a.imag * b.real

    ei, ej, d = edge[i], edge[j], v[j] - v[i]
    both = turn(ei, ej)
    start_j, start_i = turn(ei, d), turn(d, ej)  # vertex j seen from edge i, vertex i from edge j
    cross = (start_j * (start_j + both) < 0) & (start_i * (start_i - both) < 0)
    i, j = i[cross], j[cross]
    rank = np.lexsort((j, i))
    return i[rank], j[rank]


def boundary_simple_check(jet: WitnessPass) -> VerificationReport:
    """Checks the image of the pass's boundary circle is a simple closed curve.

    Two tests on the circle's samples: the tangent
    i (z F_z - conj(z) F_zbar) of the image curve must turn exactly once
    (Hopf's Umlaufsatz), which catches a fold between two samples; and the
    polygon through the sampled image must be simple.  For exp F the tangent
    is exp F times F's, and exp F comes back to its start, so the turn is
    counted on F's tangent and the polygon is the image of expm1(F), exp F's
    moved by -1, which is simple exactly when exp F's is.  A zero tangent
    fails too.

    The polygon is first offered to ``_star_shaped``, about 0, the image of 0
    of a normalised witness under F and expm1(F) alike.  A polygon it accepts
    is proven simple and has no crossing edge pairs.  Any other polygon goes to
    the crossing sweep ``_crossings``, the only test that names a crossing
    pair.  The report reads the same either way.
    """
    n, samples = jet.grid_size, jet.samples
    pts = jet.nodes[n:n + samples]
    fz, fzbar, image = jet.fz[n:], jet.fzbar[n:], jet.image[:samples]
    tangent = _unit_scale(1j * (pts * fz - pts.conj() * fzbar))
    turning = int(np.rint(np.angle(_next(tangent) * tangent.conj()).sum() / (2.0 * np.pi)))
    stalls = int(np.count_nonzero(tangent == 0))
    curve = np.expm1(image) if jet.log else image
    i, j = ((), ()) if _star_shaped(curve) else _crossings(_unit_scale(curve))
    problems = len(i) + abs(turning - 1) + stalls
    passed = problems == 0
    if len(i):
        witness = (complex(pts[i[0]]), complex(pts[j[0]]))
    else:
        witness = (complex(pts[int(np.abs(tangent).argmin())]),)
    note = f"turning number {turning}, {len(i)} crossing edge pairs over {samples} boundary samples"
    if stalls:
        note += f", {stalls} with a zero tangent"
    return VerificationReport(
        check_name="boundary-simple",
        passed=passed,
        measured_margin=float(-problems),
        witness=None if passed else witness,
        note=note,
    )


def schlicht_coverage_check(
    image: np.ndarray,
    origin: complex,
    rho: float,
    sigma: float,
    margin: float = 1e-9,
    log: bool = False,
) -> VerificationReport:
    """Checks the image of |z| < rho under F, or under exp F when log, covers the disk that sigma gives.

    ``image`` holds F's values at equally spaced points of the circle
    |z| = rho, as ``WitnessPass.coverage`` returns them, and ``origin`` is
    F(0), which must be 0 up to 1e-12.  For a univalent map the image
    boundary is the image of that circle, so the image covers a disk that
    holds the image of 0 iff the circle's image keeps the disk's radius from
    its centre.  F's disk (``schlicht-coverage``) is |w| < sigma.  exp F's
    (``exp-coverage``) has centre cosh(sigma) and radius sinh(sigma), and holds
    exp F(0) = 1.  It is read as |expm1(F) - c| with c = cosh(sigma) - 1
    computed as 2 sinh(sigma/2)^2, so that nothing cancels where F is tiny.
    """
    if not (0.0 < rho and 0.0 < sigma):
        raise DomainError(f"coverage check needs rho > 0 and sigma > 0, got {rho!r}, {sigma!r}")
    origin = float(abs(origin))
    if origin > 1e-12:
        raise DomainError(f"coverage check needs F(0) = 0, got |F(0)| = {origin!r}")
    vals = np.abs(np.expm1(image) - 2.0 * math.sinh(0.5 * sigma) ** 2) if log else np.abs(image)
    radius = math.sinh(sigma) if log else sigma
    k = int(vals.argmin())
    least = float(vals[k])
    measured = least - radius
    passed = bool(measured >= -margin)
    note = (f"min boundary distance {least:.12g} to center {math.cosh(sigma):.12g}" if log
            else f"min boundary modulus {least:.12g}")
    return VerificationReport(
        check_name="exp-coverage" if log else "schlicht-coverage",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(_circle(rho, len(vals))[k]),),
        note=f"{note} against target {radius:.12g}",
    )


def exp_disk_check(sigma: float, samples: int = 10000, seed: int = 0) -> VerificationReport:
    """Checks the disk centered at cosh(sigma) of radius sinh(sigma) sits in exp of |w| < sigma.

    Draws uniform samples from that disk and requires every principal
    logarithm to land strictly inside |w| < sigma.  Meaningful only for
    0 < sigma < 1, where the disk stays in the right half plane.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"exp-disk check needs 0 < sigma < 1, got {sigma!r}")
    if samples < 1:
        raise DomainError(f"exp-disk check needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    u = np.sqrt(rng.uniform(size=samples))
    t = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    w = np.cosh(sigma) + np.sinh(sigma) * u * np.exp(1j * t)
    logs = np.abs(np.log(w))
    k = int(logs.argmax())
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
    """Checks g never rises between consecutive sample points on [lo, hi].

    g is called once, on the array of all samples.  A strictly decreasing
    g can round to one value at neighbouring samples when its drop per
    step is below the float spacing, as 1 - 2e-14 r does over 1000
    samples on [0, 1]; so only a rise is a counterexample.
    """
    if not lo < hi:
        raise DomainError(f"monotonicity check needs lo < hi, got [{lo!r}, {hi!r}]")
    if samples < 2:
        raise DomainError(f"monotonicity check needs at least 2 samples, got {samples}")
    xs = np.linspace(lo, hi, samples)
    vals = np.broadcast_to(g(xs), xs.shape)  # a constant g may return one float
    drops = vals[:-1] - vals[1:]
    k = int(drops.argmin())
    measured = float(drops[k])
    passed = bool(measured >= 0.0)
    return VerificationReport(
        check_name="monotonicity",
        passed=passed,
        measured_margin=measured,
        witness=None if passed else (complex(xs[k]), complex(xs[k + 1])),
        note=f"smallest consecutive drop over {samples} samples",
    )


def hypothesis_audit(fn: PolyAnalyticFn, b: Profile, grid: GridSpec = GridSpec()) -> VerificationReport:
    """Checks fn satisfies the normalization and bound hypotheses encoded in b.

    Each component must vanish at 0, the leading component and every
    modulus-bounded one must have derivative 1 there, and each component
    must meet the bound of its term on |z| = ``AUDIT_RADIUS``, at the grid's
    ``angular_count`` points: a modulus bound up to the grid margin, a
    derivative bound up to ``_AUDIT_ULPS`` ulp of it.  The circle suffices
    for analytic components: by the maximum modulus principle the suprema of
    |A_k| and |A_k'| on the disk lie on its circle.  A non-analytic
    component would need the whole disk.  The identity lead is the Schwarz
    case |A_0'| <= 1, which with A_0'(0) = 1 holds only for A_0(z) = z.
    """
    if fn.order != b.order:
        raise DomainError(f"profile expects order {b.order}, function has order {fn.order}")
    pts = _circle(AUDIT_RADIUS, grid.angular_count)
    problems: list[str] = []
    for k, (comp, (kind, bound)) in enumerate(zip(fn.components, b.components)):
        if abs(comp.value(0j)) > 1e-12:
            problems.append(f"component {k} does not vanish at 0")
        if (k == 0 or kind == "modulus") and abs(comp.derivative(0j) - 1.0) > 1e-12:
            problems.append(f"component {k} linear coefficient is not 1")
        if kind == "modulus":
            worst = float(np.abs(comp.value(pts)).max())
            if worst > bound + grid.margin:
                problems.append(f"component {k} modulus exceeds {bound!r} by {worst - bound:.3g}")
        elif bound == 0.0:
            worst = float(np.abs(comp.value(pts)).max())
            if worst > grid.margin:
                problems.append(f"component {k} should vanish, max modulus {worst!r}")
        else:
            worst = float(np.abs(comp.derivative(pts)).max())
            if not worst <= bound + _AUDIT_ULPS * math.ulp(bound):  # a NaN derivative fails too
                problems.append(f"component {k} derivative exceeds {bound!r} by {worst - bound:.3g}")
    passed = not problems
    return VerificationReport(
        check_name="hypothesis-audit",
        passed=passed,
        measured_margin=0.0 if passed else -float(len(problems)),
        witness=None if passed else (complex(len(problems)),),
        note="; ".join(problems) if problems else "all hypotheses hold at the sampled resolution",
    )
