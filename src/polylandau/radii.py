"""Univalence radii and covered-disk radii under four bound profiles.

Profile families
----------------
``DerivAll``
    A_0(0) = 0, A_0'(0) = 1, |A_0'| < L0 with L0 > 1, and |A_k'| <= L_k
    for the higher components.
``DerivNormalized``
    The Schwarz case |A_0'| <= 1, which forces A_0(z) = z; higher
    components keep derivative bounds L_k >= 0.
``ModulusAll``
    Every component normalized (A_k(0) = 0, A_k'(0) = 1) with modulus
    bounds |A_k| <= M_k.  M_k = 1 is accepted and collapses the component
    to the identity.
``MixedDerivModulus``
    |A_0'| < L with L > 1 on the leading component, modulus bounds
    M_k >= 1 on components 1..p-1, all components normalized.

For each family a strictly decreasing univalence margin m(r) certifies
injectivity of every admissible function on the disk of radius r while
m(r) > 0, so the univalence radius rho is the unique zero of the margin.
The covered-disk radius sigma comes from the matching boundary
minimum-modulus bound.  The log-analytic-product variants (theorem ids
5 through 8) keep the same rho and upgrade the covered disk to center
cosh(sigma) and radius sinh(sigma); factor modulus bounds m* enter
through M = log(m*) + pi.

Numerics
--------
Bisection only: the margins are strictly decreasing, which makes
bisection unconditionally convergent, and every call is capped at 200
iterations.  Radius computations bisect until the float spacing is
exhausted so that the reported residual |m(rho)| stays far below the
1e-12 result contract even for steep margins; ``find_root_monotone``
keeps the documented 1e-13 interval tolerance as its public default.
The logarithm in sigma is evaluated log1p-style to avoid cancellation
for small rho / L0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BracketError, DegenerateResultError, DomainError

_MAX_ITER = 200
_ROOT_TOL = 0.0  # internal: bisect until the bracket cannot shrink
_CLAMP = 1.0 - 1e-9  # upper bracket for margins with a pole at r = 1


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite")
    return value


def _require_cube_finite(lam: float, what: str) -> float:
    # sigma and the derivative extremal weight a logarithm by lam**3 - lam
    try:
        lam**3
    except OverflowError:
        raise DomainError(f"{what} = {lam:g} is too large: {what}**3 overflows a float") from None
    return lam


def _bound_tuple(values, what: str, minimum: float) -> tuple[float, ...]:
    out = tuple(_require_finite(v, what) for v in values)
    if any(v < minimum for v in out):
        raise DomainError(f"every {what} must be >= {minimum:g}")
    return out


@dataclass(frozen=True)
class DerivAll:
    """Derivative bounds L0 > 1 on A_0 and L_k >= 0 on components 1..p-1."""

    lambda0: float
    lambdas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        lam0 = _require_finite(self.lambda0, "lambda0")
        if not lam0 > 1.0:
            raise DomainError(f"lambda0 must exceed 1 (strict derivative bound), got {lam0:g}")
        object.__setattr__(self, "lambda0", _require_cube_finite(lam0, "lambda0"))
        object.__setattr__(self, "lambdas", _bound_tuple(self.lambdas, "lambda_k", 0.0))

    @property
    def order(self) -> int:
        return 1 + len(self.lambdas)


@dataclass(frozen=True)
class DerivNormalized:
    """Schwarz-case profile: A_0 = z, derivative bounds L_k >= 0 above it."""

    lambdas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _bound_tuple(self.lambdas, "lambda_k", 0.0))

    @property
    def order(self) -> int:
        return 1 + len(self.lambdas)


@dataclass(frozen=True)
class ModulusAll:
    """Modulus bounds M_k >= 1 on all p normalized components."""

    ms: tuple[float, ...]

    def __post_init__(self) -> None:
        ms = _bound_tuple(self.ms, "modulus bound M_k", 1.0)
        if not ms:
            raise DomainError("at least one modulus bound is required")
        object.__setattr__(self, "ms", ms)

    @property
    def order(self) -> int:
        return len(self.ms)


@dataclass(frozen=True)
class MixedDerivModulus:
    """Derivative bound L > 1 on A_0, modulus bounds M_k >= 1 on components 1..p-1."""

    lam: float
    ms: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        lam = _require_finite(self.lam, "lambda")
        if not lam > 1.0:
            raise DomainError(f"lambda must exceed 1 (strict derivative bound), got {lam:g}")
        object.__setattr__(self, "lam", _require_cube_finite(lam, "lambda"))
        object.__setattr__(self, "ms", _bound_tuple(self.ms, "modulus bound M_k", 1.0))

    @property
    def order(self) -> int:
        return 1 + len(self.ms)


BoundProfile = DerivAll | DerivNormalized | ModulusAll | MixedDerivModulus


@dataclass(frozen=True)
class RadiiResult:
    """One computed radius pair plus root-finding diagnostics.

    ``w`` and ``r`` are populated exactly for the log-variant theorems
    (ids 5..8); ``flags`` records degenerate or weakened conclusions.
    """

    theorem: int | str
    rho: float
    sigma: float
    residual: float
    iterations: int
    w: float | None = None
    r: float | None = None
    flags: tuple[str, ...] = ()


def univalence_margin_deriv(r: float, b: DerivAll) -> float:
    """Margin for the DerivAll family; positive on [0, rho), zero at rho."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"margin argument must lie in [0, 1], got {r:g}")
    lam0 = b.lambda0
    total = lam0 * (1.0 - lam0 * r) / (lam0 - r)
    for k, lam in enumerate(b.lambdas, start=1):
        total -= (k + 1) * lam * r**k
    return total


def univalence_margin_normalized(r: float, b: DerivNormalized) -> float:
    """Margin for the Schwarz-case family: 1 - sum (k+1) L_k r^k."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"margin argument must lie in [0, 1], got {r:g}")
    total = 1.0
    for k, lam in enumerate(b.lambdas, start=1):
        total -= (k + 1) * lam * r**k
    return total


def univalence_margin_modulus(r: float, b: ModulusAll) -> float:
    """Margin for the ModulusAll family; the (1-r)^2 pole keeps r < 1."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"margin argument must lie in [0, 1), got {r:g}")
    denom = (1.0 - r) ** 2
    total = 1.0
    for k, m in enumerate(b.ms):
        gap = m - 1.0 / m
        total -= gap * r ** (k + 1) * (2.0 - r + k * (1.0 - r)) / denom
    for k in range(1, b.order):
        total -= (k + 1) * r**k
    return total


def univalence_margin_mixed(r: float, b: MixedDerivModulus) -> float:
    """Margin for the mixed family; modulus terms cover components 1..p-1 only."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"margin argument must lie in [0, 1), got {r:g}")
    lam = b.lam
    denom = (1.0 - r) ** 2
    total = lam * (1.0 - lam * r) / (lam - r)
    for k, m in enumerate(b.ms, start=1):
        gap = m - 1.0 / m
        total -= gap * r ** (k + 1) * (2.0 - r + k * (1.0 - r)) / denom
        total -= (k + 1) * r**k
    return total


def _bisect_decreasing(g, lo: float, hi: float, tol: float, max_iter: int = _MAX_ITER):
    """Bisection on a strictly decreasing g with g(lo) > 0 >= g(hi).

    Returns (root, iterations).  tol = 0 bisects until the bracket cannot
    shrink in floats, which stays well under the iteration cap for any
    root of magnitude above ~1e-30.
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
    while iterations < max_iter and (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # float spacing exhausted
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


def find_root_monotone(g, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Root of a strictly decreasing g bracketed by g(lo) > 0 >= g(hi)."""
    if not tol >= 0.0:
        raise DomainError("tolerance must be nonnegative")
    root, _ = _bisect_decreasing(g, lo, hi, tol)
    return root


def _sigma_deriv(rho: float, lam0: float, lambdas) -> float:
    total = lam0 * lam0 * rho + (lam0**3 - lam0) * math.log1p(-rho / lam0)
    for k, lam in enumerate(lambdas, start=1):
        total -= lam * rho ** (k + 1)
    return total


def deriv_radii(b: DerivAll) -> RadiiResult:
    """Radii for the DerivAll family (theorem 1); rho lies in (0, 1/L0]."""

    def margin(r: float) -> float:
        return univalence_margin_deriv(r, b)

    hi = 1.0 / b.lambda0
    if margin(hi) > 0.0:
        # exactly zero there in exact arithmetic when no higher bound bites;
        # roundoff can leave it a few ulp positive, making hi itself the root
        rho, iterations = hi, 0
    else:
        rho, iterations = _bisect_decreasing(margin, 0.0, hi, _ROOT_TOL)
    sigma = _sigma_deriv(rho, b.lambda0, b.lambdas)
    return RadiiResult(1, rho, sigma, abs(margin(rho)), iterations)


def normalized_radii(b: DerivNormalized) -> RadiiResult:
    """Radii for the Schwarz-case family (theorem 2); rho = 1 when the weights are light."""
    weight = sum((k + 1) * lam for k, lam in enumerate(b.lambdas, start=1))
    if weight <= 1.0:
        rho, iterations, residual = 1.0, 0, 0.0
    elif b.order == 2:
        # linear margin, so take the exact root instead of bisecting
        rho, iterations = 1.0 / (2.0 * b.lambdas[0]), 0
        residual = abs(univalence_margin_normalized(rho, b))
    else:

        def margin(r: float) -> float:
            return univalence_margin_normalized(r, b)

        rho, iterations = _bisect_decreasing(margin, 0.0, 1.0, _ROOT_TOL)
        residual = abs(margin(rho))
    sigma = rho - sum(lam * rho ** (k + 1) for k, lam in enumerate(b.lambdas, start=1))
    return RadiiResult(2, rho, sigma, residual, iterations)


def _sigma_modulus(rho: float, ms) -> float:
    total = rho
    for k in range(1, len(ms)):
        total -= rho ** (k + 1)
    for k, m in enumerate(ms):
        total -= (m - 1.0 / m) * rho ** (k + 2) / (1.0 - rho)
    return total


def modulus_radii(b: ModulusAll) -> RadiiResult:
    """Radii for the ModulusAll family (theorem 3); sigma <= 0 is flagged, not hidden."""
    if b.order == 1 and b.ms[0] == 1.0:
        # the identity map: univalent on the whole disk and onto it
        return RadiiResult(3, 1.0, 1.0, 0.0, 0)

    def margin(r: float) -> float:
        return univalence_margin_modulus(r, b)

    rho, iterations = _bisect_decreasing(margin, 0.0, _CLAMP, _ROOT_TOL)
    sigma = _sigma_modulus(rho, b.ms)
    flags = () if sigma > 0.0 else ("degenerate-sigma",)
    return RadiiResult(3, rho, sigma, abs(margin(rho)), iterations, flags=flags)


def _sigma_mixed(rho: float, lam: float, ms) -> float:
    total = lam * lam * rho + (lam**3 - lam) * math.log1p(-rho / lam)
    for k in range(1, len(ms) + 1):
        total -= rho ** (k + 1)
    for k, m in enumerate(ms, start=1):
        total -= (m - 1.0 / m) * rho ** (k + 2) / (1.0 - rho)
    return total


def mixed_radii(b: MixedDerivModulus) -> RadiiResult:
    """Radii for the mixed family (theorem 4); rho lies in (0, min(1/L, 1))."""

    def margin(r: float) -> float:
        return univalence_margin_mixed(r, b)

    hi = min(1.0 / b.lam, _CLAMP)
    if margin(hi) > 0.0:
        hi = 1.0 / b.lam  # the derivative factor vanishes here, forcing the margin nonpositive
    if margin(hi) > 0.0:
        rho, iterations = hi, 0  # empty modulus list plus roundoff, as in the pure case
    else:
        rho, iterations = _bisect_decreasing(margin, 0.0, hi, _ROOT_TOL)
    sigma = _sigma_mixed(rho, b.lam, b.ms)
    flags = () if sigma > 0.0 else ("degenerate-sigma",)
    return RadiiResult(4, rho, sigma, abs(margin(rho)), iterations, flags=flags)


_LOG_IDS = {1: 5, 2: 6, 3: 7, 4: 8}


def log_variant(res: RadiiResult) -> RadiiResult:
    """Upgrade a base result to its log-analytic-product form.

    Keeps rho and sigma, adds the covered disk center w = cosh(sigma) and
    radius r = sinh(sigma).  sigma <= 0 leaves nothing to cover and is an
    error; sigma >= 1 keeps the containment but drops the sharpness
    claim, recorded as a flag.
    """
    if res.sigma <= 0.0:
        raise DegenerateResultError(
            f"covered-disk radius sigma = {res.sigma:.6g} is not positive; no log-variant disk exists"
        )
    flags = res.flags
    if res.sigma >= 1.0 and "sharpness-not-asserted" not in flags:
        flags = flags + ("sharpness-not-asserted",)
    theorem = _LOG_IDS.get(res.theorem, res.theorem)
    return replace(
        res,
        theorem=theorem,
        w=math.cosh(res.sigma),
        r=math.sinh(res.sigma),
        flags=flags,
    )


def log_bound_from_modulus(m_star: float) -> float:
    """Map a factor modulus bound m* > 1 to the log-part bound log(m*) + pi."""
    m_star = _require_finite(m_star, "factor modulus bound")
    if not m_star > 1.0:
        raise DomainError(f"factor modulus bound must exceed 1, got {m_star:g}")
    return math.log(m_star) + math.pi


def log_deriv_radii(b: DerivAll) -> RadiiResult:
    """Theorem 5: DerivAll bounds on the log part of a product function."""
    return log_variant(deriv_radii(b))


def log_normalized_radii(b: DerivNormalized) -> RadiiResult:
    """Theorem 6: Schwarz-case bounds on the log part."""
    return log_variant(normalized_radii(b))


def log_modulus_radii(m_stars) -> RadiiResult:
    """Theorem 7: factor modulus bounds m*_k mapped to ModulusAll log bounds."""
    profile = ModulusAll(tuple(log_bound_from_modulus(m) for m in m_stars))
    return log_variant(modulus_radii(profile))


def log_mixed_radii(lam: float, m_stars) -> RadiiResult:
    """Theorem 8: derivative bound on the leading log component, factor bounds above."""
    profile = MixedDerivModulus(lam, tuple(log_bound_from_modulus(m) for m in m_stars))
    return log_variant(mixed_radii(profile))


def classical_landau(m: float) -> tuple[float, float]:
    """The classical bounded-analytic radii r0 = 1/(M + sqrt(M^2-1)), R0 = M r0^2."""
    m = _require_finite(m, "modulus bound")
    if not m > 1.0:
        raise DomainError(f"classical radii need a modulus bound M > 1, got {m:g}")
    r0 = 1.0 / (m + math.sqrt(m * m - 1.0))
    return r0, m * r0 * r0


def bianalytic_deriv_baseline(lam1: float, lam2: float) -> tuple[float, float]:
    """Prior sharp order-2 result under derivative bounds (L1 >= 0, L2 > 1)."""
    lam1 = _require_finite(lam1, "lambda1")
    lam2 = _require_finite(lam2, "lambda2")
    if lam1 < 0.0:
        raise DomainError(f"lambda1 must be nonnegative, got {lam1:g}")
    if not lam2 > 1.0:
        raise DomainError(f"lambda2 must exceed 1, got {lam2:g}")
    _require_cube_finite(lam2, "lambda2")
    s = lam2 * (2.0 * lam1 + lam2)
    r1 = 2.0 * lam2 / (s + math.sqrt(s * s - 8.0 * lam1 * lam2))
    big_r1 = lam2 * lam2 * r1 + (lam2**3 - lam2) * math.log(1.0 - r1 / lam2) - lam1 * r1 * r1
    return r1, big_r1


def bianalytic_bounded_baseline(lam: float) -> tuple[float, float]:
    """Prior order-2 Schwarz-case result: r2 = 1 for L <= 1/2, else 1/(2L)."""
    lam = _require_finite(lam, "lambda")
    if lam < 0.0:
        raise DomainError(f"lambda must be nonnegative, got {lam:g}")
    r2 = 1.0 if lam <= 0.5 else 1.0 / (2.0 * lam)
    return r2, r2 - lam * r2 * r2


def _poly_modulus_margin(r: float, m: float, p: int) -> float:
    denom = (1.0 - r) ** 2
    total = r * (2.0 - r)
    for k in range(1, p):
        total += r**k * (1.0 + k - k * r)
    return 1.0 - m * total / denom


def poly_modulus_baseline(m: float, p: int) -> tuple[float, float]:
    """Prior non-sharp order-p result under a single modulus bound M > 1."""
    m = _require_finite(m, "modulus bound")
    if not m > 1.0:
        raise DomainError(f"the baseline needs a modulus bound M > 1, got {m:g}")
    if p < 1:
        raise DomainError(f"order must be a positive integer, got {p}")

    def margin(r: float) -> float:
        return _poly_modulus_margin(r, m, p)

    r3, _ = _bisect_decreasing(margin, 0.0, _CLAMP, _ROOT_TOL)
    big_r3 = r3
    for k in range(1, p):
        big_r3 -= r3 ** (k + 1)
    for k in range(p):
        big_r3 -= m * r3 ** (k + 2) / (1.0 - r3)
    return r3, big_r3
