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

Term model
----------
Every profile is a leading term plus one term per higher component k
(``Terms``).  The leading term is a derivative bound L > 1, the identity,
or a modulus bound M >= 1; each higher component has a derivative bound
L_k >= 0 or a modulus bound M_k >= 1.  With g = M - 1/M, a modulus term is
the identity term plus an excess term, so that

    m(r) = lead_m(r) - sum (k+1) L_k r^k
                     - sum g_k r^(k+1) (2 - r + k(1-r)) / (1-r)^2
                     - sum (k+1) r^k
    s(r) = lead_s(r) - sum L_k r^(k+1) - sum r^(k+1) - sum g_k r^(k+2) / (1-r)

summed in that order, where the first sums run over derivative terms,
the excess sums over modulus terms (k = 0 for a modulus lead) and the
(k+1) r^k and r^(k+1) sums over higher modulus components.  A derivative
lead has lead_m = L (1 - L r)/(L - r) and lead_s = L^2 r + (L^3 - L)
log(1 - r/L); the identity and a modulus lead have lead_m = 1, lead_s = r.

The strictly decreasing margin m certifies injectivity of every
admissible function on the disk of radius r while m(r) > 0, so the
univalence radius rho is its unique zero; sigma = s(rho) is the matching
boundary minimum-modulus bound.  The log-analytic-product variants
(theorem ids 5 through 8) keep the same rho and upgrade the covered disk
to center cosh(sigma) and radius sinh(sigma); factor modulus bounds m*
enter through M = log(m*) + pi.

Numerics
--------
Bisection only: the margins are strictly decreasing, which makes
bisection unconditionally convergent.  It halves the bracket until its
midpoint is no longer strictly inside it, that is until the float spacing
is exhausted, so that the reported residual |m(rho)| stays far below the
1e-12 result contract even for steep margins.  That always ends: a
bracket within [0, 1] takes at most 1074 halvings, a root near 1e-60
about 250.  A modulus bound whose square overflows (M above about 1.34e154) is
a ``DomainError``: the M r^2 terms of sigma would underflow at its root.
The two terms of lead_s cancel to about r/2 while each has size L^2 r, so
for small r/L they are summed analytically (``_lead_sigma``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

from .errors import BracketError, DegenerateResultError, DomainError

_CLAMP = 1.0 - 1e-9  # upper bracket for margins with a pole at r = 1
_SERIES_X = 2.0**-8  # r/L below which lead_s is summed as a series


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite")
    return value


def _require_power_finite(value: float, what: str, n: int) -> float:
    # sigma and the derivative extremal weight a logarithm by lam**3 - lam;
    # the modulus terms of sigma and the classical radii need M**2
    try:
        value**n
    except OverflowError:
        raise DomainError(f"{what} = {value!r} is too large: {what}**{n} overflows a float") from None
    return value


def _lead_bound(value: float, what: str) -> float:
    lam = _require_finite(value, what)
    if not lam > 1.0:
        raise DomainError(f"{what} must exceed 1 (strict derivative bound), got {lam!r}")
    return _require_power_finite(lam, what, 3)


def _bound_tuple(values, what: str, minimum: float) -> tuple[float, ...]:
    out = tuple(_require_finite(v, what) for v in values)
    for v in out:
        if v < minimum:
            raise DomainError(f"every {what} must be >= {minimum:g}, got {v!r}")
    return out


@dataclass(frozen=True)
class Terms:
    """A profile as one (kind, bound) term per component, with its weights.

    ``components[0]`` is the leading term: ("deriv", L), ("identity", 1.0)
    or ("modulus", M); each higher component is ("deriv", L_k) or
    ("modulus", M_k).  The other fields are the weights of the margin and
    sigma sums (module docstring), computed once; zero weights are left out.
    """

    components: tuple[tuple[str, float], ...]
    lead: float | None  # L of a derivative lead, None for the identity or a modulus lead
    deriv: tuple[tuple[int, float, float], ...]  # (k, (k+1) L_k, L_k) for L_k > 0
    excess: tuple[tuple[int, float], ...]  # (k, M_k - 1/M_k) for M_k > 1
    identity: tuple[tuple[int, float], ...]  # (k, k+1) for modulus components k >= 1
    modulus: bool  # a modulus term puts a (1 - r)^2 pole at r = 1

    @classmethod
    def of(cls, components) -> Terms:
        deriv, excess, identity = [], [], []
        for k, (kind, bound) in enumerate(components):
            if kind == "modulus":
                _require_power_finite(bound, f"M_{k}", 2)
                if k:
                    identity.append((k, k + 1.0))
                if bound > 1.0:
                    excess.append((k, bound - 1.0 / bound))
            elif kind == "deriv" and k and bound > 0.0:
                weight = (k + 1) * bound
                if not math.isfinite(weight):
                    raise DomainError(f"lambda_{k} = {bound!r} is too large: {k + 1} * lambda_{k} overflows a float")
                deriv.append((k, weight, bound))
        lead_kind, lead_bound = components[0]
        return cls(
            tuple(components),
            lead_bound if lead_kind == "deriv" else None,
            tuple(deriv),
            tuple(excess),
            tuple(identity),
            any(kind == "modulus" for kind, _ in components),
        )

    def upper(self, clamp: float) -> float:
        """1/L for a derivative lead, else 1; min(., clamp) below the pole of a modulus term."""
        hi = 1.0 if self.lead is None else 1.0 / self.lead
        return min(hi, clamp) if self.modulus else hi


class _Profile:
    """What the four profile classes share: their ``Terms`` and the theorem they state."""

    theorem: ClassVar[int]
    terms: Terms

    def _set_terms(self, lead: tuple[str, float], kind: str, bounds) -> None:
        object.__setattr__(self, "terms", Terms.of((lead, *((kind, v) for v in bounds))))

    @property
    def order(self) -> int:
        return len(self.terms.components)


@dataclass(frozen=True)
class DerivAll(_Profile):
    """Derivative bounds L0 > 1 on A_0 and L_k >= 0 on components 1..p-1."""

    theorem: ClassVar[int] = 1
    lambda0: float
    lambdas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda0", _lead_bound(self.lambda0, "lambda0"))
        object.__setattr__(self, "lambdas", _bound_tuple(self.lambdas, "lambda_k", 0.0))
        self._set_terms(("deriv", self.lambda0), "deriv", self.lambdas)


@dataclass(frozen=True)
class DerivNormalized(_Profile):
    """Schwarz-case profile: A_0 = z, derivative bounds L_k >= 0 above it."""

    theorem: ClassVar[int] = 2
    lambdas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _bound_tuple(self.lambdas, "lambda_k", 0.0))
        self._set_terms(("identity", 1.0), "deriv", self.lambdas)


@dataclass(frozen=True)
class ModulusAll(_Profile):
    """Modulus bounds M_k >= 1 on all p normalized components."""

    theorem: ClassVar[int] = 3
    ms: tuple[float, ...]

    def __post_init__(self) -> None:
        ms = _bound_tuple(self.ms, "modulus bound M_k", 1.0)
        if not ms:
            raise DomainError("at least one modulus bound is required")
        object.__setattr__(self, "ms", ms)
        self._set_terms(("modulus", ms[0]), "modulus", ms[1:])


@dataclass(frozen=True)
class MixedDerivModulus(_Profile):
    """Derivative bound L > 1 on A_0, modulus bounds M_k >= 1 on components 1..p-1."""

    theorem: ClassVar[int] = 4
    lam: float
    ms: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _lead_bound(self.lam, "lambda"))
        object.__setattr__(self, "ms", _bound_tuple(self.ms, "modulus bound M_k", 1.0))
        self._set_terms(("deriv", self.lam), "modulus", self.ms)


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


def univalence_margin(r: float, b: BoundProfile) -> float:
    """Margin of any profile; positive on [0, rho), zero at rho.

    A modulus term's (1-r)^2 pole keeps r < 1.
    """
    t = b.terms
    if not (0.0 <= r < 1.0 if t.modulus else 0.0 <= r <= 1.0):
        raise DomainError(f"margin argument must lie in [0, 1{')' if t.modulus else ']'}, got {r!r}")
    lam = t.lead
    total = 1.0 if lam is None else lam * (1.0 - lam * r) / (lam - r)
    for k, weight, _ in t.deriv:
        total -= weight * r**k
    if t.excess:
        denom = (1.0 - r) ** 2
        for k, gap in t.excess:
            total -= gap * r ** (k + 1) * (2.0 - r + k * (1.0 - r)) / denom
    for k, weight in t.identity:
        total -= weight * r**k
    return total


univalence_margin_deriv = univalence_margin_normalized = univalence_margin
univalence_margin_modulus = univalence_margin_mixed = univalence_margin


def _bisect_decreasing(g, lo: float, hi: float):
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


def _lead_sigma(r: float, lam: float) -> float:
    """L^2 r + (L^3 - L) log(1 - r/L), the derivative lead's share of sigma."""
    x = r / lam
    if x >= _SERIES_X:
        return lam * lam * r + (lam**3 - lam) * math.log1p(-x)
    # log(1 - x) = -x - sum_{n>=2} x^n/n turns the sum into r - (L - 1/L) r^2 sum_{n>=2} x^(n-2)/n,
    # whose terms no longer cancel; n <= 10 truncates below 2^-70 relative for x < 2^-8, and
    # (L - 1)(L + 1)/L keeps L - 1/L accurate as L approaches 1
    tail = 0.0
    for n in range(10, 1, -1):
        tail = tail * x + 1.0 / n
    return r - (lam - 1.0) * (lam + 1.0) / lam * r * r * tail


def _sigma(r: float, t: Terms) -> float:
    total = r if t.lead is None else _lead_sigma(r, t.lead)
    for k, _, lam in t.deriv:
        total -= lam * r ** (k + 1)
    for k, _ in t.identity:
        total -= r ** (k + 1)
    for k, gap in t.excess:
        total -= gap * r ** (k + 2) / (1.0 - r)
    return total


def radii(b: BoundProfile) -> RadiiResult:
    """Radii of any profile (theorems 1-4): rho is the zero of its margin, sigma = s(rho).

    The bracket is (0, 1/L] for a derivative lead and (0, 1] otherwise,
    clamped below the pole when a modulus term is present.  Closed forms
    skip the bisection: rho = 1 when the margin is 1 minus polynomial
    weights summing to at most 1 (the identity map, light Schwarz-case
    bounds), the exact root of a linear Schwarz-case margin, and rho = 1/L
    when roundoff leaves the margin a few ulp positive there.
    """
    t = b.terms

    def margin(r: float) -> float:
        return univalence_margin(r, b)

    plain = t.lead is None and not t.excess
    if plain and sum(w for _, w, _ in t.deriv) + sum(w for _, w in t.identity) <= 1.0:
        rho, iterations, residual = 1.0, 0, 0.0
    else:
        if plain and not t.modulus and len(t.components) == 2:
            rho, iterations = 1.0 / t.deriv[0][1], 0  # linear margin, so take the exact root
        else:
            hi = t.upper(_CLAMP)
            if t.modulus and t.lead is not None and margin(hi) > 0.0:
                hi = 1.0 / t.lead  # the derivative factor vanishes here, forcing the margin nonpositive
            if t.lead is not None and margin(hi) > 0.0:
                # exactly zero there in exact arithmetic when no higher bound bites;
                # roundoff can leave it a few ulp positive, making hi itself the root
                rho, iterations = hi, 0
            else:
                rho, iterations = _bisect_decreasing(margin, 0.0, hi)
        residual = abs(margin(rho))
    sigma = _sigma(rho, t)
    flags = () if sigma > 0.0 else ("degenerate-sigma",)
    return RadiiResult(b.theorem, rho, sigma, residual, iterations, flags=flags)


deriv_radii = normalized_radii = modulus_radii = mixed_radii = radii


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
        raise DomainError(f"factor modulus bound must exceed 1, got {m_star!r}")
    return math.log(m_star) + math.pi


def log_deriv_radii(b: DerivAll | DerivNormalized) -> RadiiResult:
    """Theorems 5 and 6: derivative bounds on the log part of a product function."""
    return log_variant(radii(b))


log_normalized_radii = log_deriv_radii


def log_modulus_radii(m_stars) -> RadiiResult:
    """Theorem 7: factor modulus bounds m*_k mapped to ModulusAll log bounds."""
    return log_variant(radii(ModulusAll(tuple(log_bound_from_modulus(m) for m in m_stars))))


def log_mixed_radii(lam: float, m_stars) -> RadiiResult:
    """Theorem 8: derivative bound on the leading log component, factor bounds above."""
    return log_variant(radii(MixedDerivModulus(lam, tuple(log_bound_from_modulus(m) for m in m_stars))))


def classical_landau(m: float) -> tuple[float, float]:
    """The classical bounded-analytic radii r0 = 1/(M + sqrt(M^2-1)), R0 = M r0^2."""
    m = _require_finite(m, "modulus bound")
    if not m > 1.0:
        raise DomainError(f"classical radii need a modulus bound M > 1, got {m!r}")
    _require_power_finite(m, "M", 2)
    r0 = 1.0 / (m + math.sqrt(m * m - 1.0))
    return r0, m * r0 * r0


def bianalytic_deriv_baseline(lam1: float, lam2: float) -> tuple[float, float]:
    """Prior sharp order-2 result under derivative bounds (L1 >= 0, L2 > 1)."""
    lam1 = _require_finite(lam1, "lambda1")
    lam2 = _require_finite(lam2, "lambda2")
    if lam1 < 0.0:
        raise DomainError(f"lambda1 must be nonnegative, got {lam1!r}")
    if not lam2 > 1.0:
        raise DomainError(f"lambda2 must exceed 1, got {lam2!r}")
    _require_power_finite(lam2, "lambda2", 3)
    # the smaller root of 2 L1 r^2 - u L2 r + L2 with u = 2 L1 + L2, divided through by u so no product overflows
    u = 2.0 * lam1 + lam2
    if not math.isfinite(u):
        raise DomainError(f"lambda1 = {lam1!r} is too large: 2 * lambda1 overflows a float")
    r1 = 2.0 / (u * (1.0 + math.sqrt(1.0 - 8.0 * (lam1 / u) / lam2 / u)))
    return r1, _lead_sigma(r1, lam2) - lam1 * r1 * r1


def bianalytic_bounded_baseline(lam: float) -> tuple[float, float]:
    """Prior order-2 Schwarz-case result: r2 = 1 for L <= 1/2, else 1/(2L)."""
    lam = _require_finite(lam, "lambda")
    if lam < 0.0:
        raise DomainError(f"lambda must be nonnegative, got {lam!r}")
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
        raise DomainError(f"the baseline needs a modulus bound M > 1, got {m!r}")
    _require_power_finite(m, "M", 2)
    if p < 1:
        raise DomainError(f"order must be a positive integer, got {p}")

    def margin(r: float) -> float:
        return _poly_modulus_margin(r, m, p)

    r3, _ = _bisect_decreasing(margin, 0.0, _CLAMP)
    big_r3 = r3
    for k in range(1, p):
        big_r3 -= r3 ** (k + 1)
    for k in range(p):
        big_r3 -= m * r3 ** (k + 2) / (1.0 - r3)
    return r3, big_r3
