"""Univalence radii and covered-disk radii under four bound profiles.

Profiles
--------
Every profile is one ``Profile``: the theorem it states and one
(kind, bound) term per component.  Four constructors, one per theorem,
validate the bounds and build it:

``DerivAll(lambda0, lambdas)``, theorem 1
    A_0(0) = 0, A_0'(0) = 1, |A_0'| < L0 with L0 > 1, and |A_k'| <= L_k
    for the higher components.
``DerivNormalized(lambdas)``, theorem 2
    The Schwarz case |A_0'| <= 1, which forces A_0(z) = z; higher
    components keep derivative bounds L_k >= 0.
``ModulusAll(ms)``, theorem 3
    Every component normalized (A_k(0) = 0, A_k'(0) = 1) with modulus
    bounds |A_k| <= M_k.  M_k = 1 is accepted and collapses the component
    to the identity.
``MixedDerivModulus(lam, ms)``, theorem 4
    |A_0'| < L0 with L0 > 1 on the leading component, modulus bounds
    M_k >= 1 on components 1..p-1, all components normalized.

Term model
----------
A profile is a leading term plus one term per higher component.  The
leading term is a derivative bound L > 1, the identity, or a modulus
bound M >= 1; each higher component has a derivative bound L_k >= 0 or a
modulus bound M_k >= 1.  A component c z adds linear terms, c = L_k for a
derivative bound; with g = M - 1/M, a modulus component adds those of
c = 1 plus an excess term, and a modulus lead (k = 0) the excess alone:

    m(r) = lead_m(r) - sum g_k r^(k+1) (2 - r + k(1-r)) / (1-r)^2 - sum (k+1) c_k r^k
    s(r) = lead_s(r) - sum c_k r^(k+1) - sum g_k r^(k+2) / (1-r)

summed in that order, each sum by increasing k.  A derivative lead has
lead_m = L (1 - L r)/(L - r) and lead_s = L^2 r + (L^3 - L) log(1 - r/L);
the identity and a modulus lead have lead_m = 1, lead_s = r.
``Profile.of`` computes these weights once, when the profile is built.
It stores g as (M - 1)(M + 1)/M: M - 1/M cancels as M approaches 1, with
a relative error near u/(M - 1), and at order 1 the root sits beside the
pole at r = 1, where rho moves with g.

The strictly decreasing margin m certifies injectivity of every
admissible function on the disk of radius r while m(r) > 0, so the
univalence radius rho is its unique zero; sigma = s(rho) is the matching
boundary minimum-modulus bound.

sigma is the integral of the margin.  Each term of s differentiates to
the matching term of m:

    (L^2 r + (L^3 - L) log(1 - r/L))' = L (1 - L r)/(L - r),
    (c r^(k+1))' = (k+1) c r^k,
    (g r^(k+2)/(1 - r))' = g r^(k+1) (k + 2 - (k+1) r)/(1 - r)^2,

and k + 2 - (k+1) r = 2 - r + k(1 - r).  So s' = m and s(0) = 0, which
gives sigma = integral of m(r) dr from 0 to rho.  m falls from 1 to 0
on [0, rho], so 0 < sigma < rho for every profile, with sigma = rho only
where m is 1 throughout: the identity, rho = sigma = 1.  A sigma <= 0
(the ``degenerate-sigma`` flag) can come only from rounding.

The log-analytic-product variants
(theorem ids 5 through 8) keep the same rho and upgrade the covered disk
to center cosh(sigma) and radius sinh(sigma); factor modulus bounds m*
enter through M = log(m*) + pi.

Numerics
--------
rho is plain bisection's root: the margins are strictly decreasing, which makes
bisection unconditionally convergent.  It halves the bracket until its
midpoint is no longer strictly inside it, that is until the float spacing
is exhausted, so that the reported residual |m(rho)| stays far below the
1e-12 result contract even for steep margins.  That always ends: a
bracket within [0, 1] takes at most 1074 halvings, a root near 1e-60
about 250.  A modulus bound whose square overflows (M above about 1.34e154) is
a ``DomainError``: the M r^2 terms of sigma would underflow at its root.
The two terms of lead_s cancel to about r/2 while each has size L^2 r, so
for small r/L they are summed analytically (``_lead_sigma``).  A term
c r^(k+1) of sigma has size about r/(k+1) at a root far below 1 even
where r^(k+1) alone underflows, so ``_scaled_power`` raises r's mantissa
to the power there and scales the product back by a power of two.  The
poly-modulus baseline's sigma takes its powers the same way.

*Replay.*  Bisection's path depends only on the computed sign of m at
each midpoint, so ``_bisect_decreasing`` replays it in fewer evaluations
when it is given a rounding bound err(r) >= |fl(m(r)) - m(r)| under which
m - err and m + err are nonincreasing on the bracket.  A point a with
fl(m(a)) > 2 err(a) then fixes the sign of every midpoint r <= a:

    fl(m(r)) >= m(r) - err(r) >= m(a) - err(a) >= fl(m(a)) - 2 err(a) > 0,

and a point b with fl(m(b)) < -2 err(b) fixes fl(m(r)) < 0 for every
r >= b in the same way.  The loop stays bisection's; it takes the sign
from position outside (a, b) and evaluates m only inside, so rho and
``iterations`` are bisection's bit for bit.  Most steps come before the
first midpoint inside (a, b): over the rows of the solve-sweep
benchmark's tables (seeds 1-4, 11,616 solves) a solve takes about 54
steps, the first 45 of them positional, then 8 that evaluate m and 1
more positional.  A tight loop replays that positional prefix, and the
evaluating loop takes the rest.  ``_locate`` finds a and b
with Illinois steps and a few probes around the first point inside the
band |fl(m)| <= 2 err, in at most ``_LOCATE_CAP`` = 24 evaluations: a
solve costs at most plain bisection's count plus 24.

*Known values.*  ``radii`` builds its margin once per profile
(``_margin_of``, the one body of m, which ``univalence_margin`` calls
after its per-call domain check).  The solver evaluates m only on the
bracket [0, hi], so ``radii`` checks hi once per solve instead.  Values of m are passed in and handed
back, so the solver evaluates m at no point whose value it is given.
Every margin is exactly 1 at r = 0: each term vanishes there, and the
derivative lead is L (1 - 0)/(L - 0) = L/L, which is exactly 1; so is
``poly_modulus_baseline``'s.  ``radii`` passes that 1 and the m(hi) it
computed to test hi for the root, and the solver hands back m(rho) when it
evaluated m there, which then is the residual.  Over the rows of the
solve-sweep benchmark's tables (seeds 1-4, 11,616 solves) a solve makes
about 20 margin calls where bisection makes about 58.

*Seeds.*  ``table`` rows solve one profile after another, each with a
root close to the last.  ``_Sweep`` guesses the next root by linear
extrapolation from the last two rows (row 2 takes row 1's rho), with the
last guess's miss as the step; ``_locate`` probes the guess, then steps
toward the root, four times further after each probe on the same side,
until probes lie on both sides of it, and Illinois goes on from that
bracket with a secant step.  The argument above holds for any a and b
that pass the band test, however they were found, so a guess changes
neither rho nor sigma, the residual or ``iterations``.  Every probe comes
out of the same 24 evaluations, so a seeded solve, whatever its guess,
still costs at most plain bisection's count plus 24.  On the same rows a
seeded solve makes about 15 margin calls.

*The bound* (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 3, with gamma_n = n u / (1 - n u) and u = 2^-53).  On the stored
weights, each computed term of m is within gamma_11 of its exact value,
relative to its magnitude: the excess term rounds in r^(k+1) (a libm
pow, within one ulp, so two roundings), the product with g_k, the three
operations of 2 - r + k(1 - r), whose parts are all nonnegative, the
product and the quotient, and three for (1 - r)^2; a linear term
rounds three times.  The derivative lead L (1 - L r)/(L - r)
is within gamma_6 S_lead of its exact value, where
S_lead = L (1 + L r)/(L - r) is the sum of the magnitudes inside it
(S_lead = lead = 1 for the identity or a modulus lead).  Recursive
summation of the lead and n terms adds gamma_n on the sum of magnitudes,
so with T = lead - m >= 0 the sum of the subtracted terms

    |fl(m(r)) - m(r)| <= gamma_(11+n) (S_lead(r) + T(r)).

``_margin_error`` passes err = K u (S_lead + lead - fl(m)) with
K = 12 + n: the count above 11 + n covers gamma's denominator, the
rounding of err itself and its use of fl(m) for m.  Every subtracted
term increases with r, the excess term being the derivative of
g_k r^(k+2)/(1 - r), a series with nonnegative coefficients; so
m - err = lead - K u S_lead - (1 + K u) T is nonincreasing, and
m + err = lead + K u S_lead - (1 - K u) T is nonincreasing when
(lead + K u S_lead)' = L (1 - L^2 + K u (1 + L^2))/(L - r)^2 <= 0, that
is when K u (1 + L^2) < L^2 - 1.  Where that fails, L lies within a few
thousand ulp of 1, and the solve passes no bound: plain bisection.

``poly_modulus_baseline``'s margin is 1 - P with P = M Q/(1 - r)^2 >= 0
increasing in r.  Its term r^k (1 + k - k r) cancels in 1 + k - k r,
which is at least 1, so the term is within gamma_(k+5) of its value; Q is
within gamma_(2p+3), P within gamma_(2p+8) and the margin within
gamma_(2p+9) (1 + P).  It passes err = (2p + 10) u (2 - fl(m)), under
which m - err and m + err are nonincreasing for every M.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import count

from .errors import BracketError, DegenerateResultError, DomainError

_CLAMP = 1.0 - 1e-9  # upper bracket for margins with a pole at r = 1
_SERIES_X = 2.0**-8  # r/L below which lead_s is summed as a series
_U = 2.0**-53  # unit roundoff of a double
_TERM_OPS = 11  # roundings in the costliest margin term (module docstring, Numerics)
_LOCATE_CAP = 24  # evaluations the locate phase may add to bisection's
_GEOMETRIC = 16.0  # bracket ratio above which a stalled locate step bisects geometrically
_SEED_STEP = 2.0**-7  # the step of a table's second row, relative to the first row's rho
_RESIDUAL_CONTRACT = 1e-12  # the |m(rho)| a result promises; a larger residual is flagged
_TINY = 2.0**-1022  # the least normal double


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
    out = tuple(map(float, values))
    if not all(map(math.isfinite, out)):
        raise DomainError(f"{what} must be finite")
    for v in out:
        if v < minimum:
            raise DomainError(f"every {what} must be >= {minimum:g}, got {v!r}")
    return out


class Profile(namedtuple("Profile", "theorem components lead linear excess modulus")):
    """A theorem's bounds as one (kind, bound) term per component, with their weights.

    ``theorem`` is 1..4; the log forms 5..8 reuse the profile of theorem - 4.
    ``components[0]`` is the leading term: ("deriv", L), ("identity", 1.0)
    or ("modulus", M); each higher component is ("deriv", L_k) or
    ("modulus", M_k).  The other fields are the weights of the margin and
    sigma sums (module docstring), computed once by ``Profile.of``; zero
    weights are left out:

    ``lead``
        L of a derivative lead, None for the identity or a modulus lead.
    ``linear``
        (k, (k+1) c, c): c = L_k > 0, or 1 for M_k with k >= 1.
    ``excess``
        (k, (M_k - 1)(M_k + 1)/M_k) for M_k > 1.
    ``modulus``
        True when a modulus term puts a (1 - r)^2 pole at r = 1.

    The four constructors below validate a theorem's bounds and are the
    only callers of ``Profile.of``.
    """

    __slots__ = ()

    @classmethod
    def of(cls, theorem: int, components) -> Profile:
        components = tuple(components)
        linear, excess, modulus = [], [], False
        for k, (kind, bound) in enumerate(components):
            if kind == "modulus":
                modulus = True
                _require_power_finite(bound, f"M_{k}", 2)
                if k:
                    linear.append((k, k + 1.0, 1.0))
                if bound > 1.0:
                    excess.append((k, (bound - 1.0) * (bound + 1.0) / bound))
            elif kind == "deriv" and k and bound > 0.0:
                weight = (k + 1) * bound
                if not math.isfinite(weight):
                    raise DomainError(f"lambda_{k} = {bound!r} is too large: {k + 1} * lambda_{k} overflows a float")
                linear.append((k, weight, bound))
        lead_kind, lead_bound = components[0]
        return cls(
            theorem,
            components,
            lead_bound if lead_kind == "deriv" else None,
            tuple(linear),
            tuple(excess),
            modulus,
        )

    @property
    def order(self) -> int:
        return len(self.components)

    def upper(self, clamp: float) -> float:
        """1/L for a derivative lead, else 1; min(., clamp) below the pole of a modulus term."""
        hi = 1.0 if self.lead is None else 1.0 / self.lead
        return min(hi, clamp) if self.modulus else hi


def DerivAll(lambda0: float, lambdas: tuple[float, ...] = ()) -> Profile:
    """Theorem 1: derivative bounds L0 > 1 on A_0 and L_k >= 0 on components 1..p-1."""
    lead = _lead_bound(lambda0, "lambda0")
    lambdas = _bound_tuple(lambdas, "lambda_k", 0.0)
    return Profile.of(1, (("deriv", lead), *(("deriv", v) for v in lambdas)))


def DerivNormalized(lambdas: tuple[float, ...] = ()) -> Profile:
    """Theorem 2, the Schwarz case: A_0 = z, derivative bounds L_k >= 0 above it."""
    lambdas = _bound_tuple(lambdas, "lambda_k", 0.0)
    return Profile.of(2, (("identity", 1.0), *(("deriv", v) for v in lambdas)))


def ModulusAll(ms: tuple[float, ...]) -> Profile:
    """Theorem 3: modulus bounds M_k >= 1 on all p normalized components."""
    ms = _bound_tuple(ms, "modulus bound M_k", 1.0)
    if not ms:
        raise DomainError("at least one modulus bound is required")
    return Profile.of(3, (("modulus", m) for m in ms))


def MixedDerivModulus(lam: float, ms: tuple[float, ...] = ()) -> Profile:
    """Theorem 4: derivative bound L0 > 1 on A_0, modulus bounds M_k >= 1 on components 1..p-1."""
    lead = _lead_bound(lam, "lambda0")
    ms = _bound_tuple(ms, "modulus bound M_k", 1.0)
    return Profile.of(4, (("deriv", lead), *(("modulus", m) for m in ms)))


class RadiiResult(namedtuple("RadiiResult", "theorem rho sigma residual iterations w r flags",
                             defaults=(None, None, ()))):
    """One computed radius pair plus root-finding diagnostics.

    ``theorem`` is 1..8; ``w`` and ``r`` are populated exactly for the
    log-variant theorems (ids 5..8); ``flags`` records degenerate or
    weakened conclusions: ``degenerate-sigma``, ``residual-above-contract``
    (|m(rho)| > 1e-12) and ``sharpness-not-asserted``.
    """

    __slots__ = ()


def _require_in_domain(r, b: Profile) -> None:
    """A DomainError unless r, a float or every sample of an array, lies in [0, 1], or [0, 1) with a modulus term."""
    try:
        inside = 0.0 <= r < 1.0 if b.modulus else 0.0 <= r <= 1.0
    except ValueError:  # an array, whose comparison has no single truth value: check its ends as scalars
        _require_in_domain(float(r.min()), b)
        _require_in_domain(float(r.max()), b)
        return
    if not inside:
        raise DomainError(f"margin argument must lie in [0, 1{')' if b.modulus else ']'}, got {r!r}")


def _margin_of(b: Profile):
    """The margin of b as a function of r, built once per profile, without a domain check.

    ``radii`` solves with it and checks its bracket [0, hi] once per
    solve, since the solver evaluates the margin only inside that bracket;
    ``univalence_margin`` checks r and then calls it.
    """
    lam, excess, linear = b.lead, b.excess, b.linear

    def margin(r):
        total = 1.0 if lam is None else lam * (1.0 - lam * r) / (lam - r)
        if excess:
            denom = (1.0 - r) ** 2
            for k, gap in excess:
                total -= gap * r ** (k + 1) * (2.0 - r + k * (1.0 - r)) / denom
        for k, weight, _ in linear:
            total -= weight * r**k
        return total

    return margin


def univalence_margin(r, b: Profile):
    """Margin of any profile; positive on [0, rho), zero at rho.

    r is a float or a float64 array, which gives the margin at each
    sample (a profile with no terms gives the float 1.0); an array's
    domain check reads its smallest and largest sample.  A modulus
    term's (1-r)^2 pole keeps r < 1.
    """
    _require_in_domain(r, b)
    return _margin_of(b)(r)


univalence_margin_deriv = univalence_margin_normalized = univalence_margin
univalence_margin_modulus = univalence_margin_mixed = univalence_margin


def _bisect_decreasing(g, lo: float, hi: float, err=None, glo=None, ghi=None, guess=None):
    """Bisection on a strictly decreasing g with g(lo) > 0 >= g(hi).

    Returns (root, iterations, g(root) or None where g was not computed
    there).  Bisects until the midpoint is no longer strictly inside the
    bracket, so every step shrinks it by at least one float; a bracket
    within [0, 1] takes at most 1074 steps.

    ``err(r, g_r)`` is an optional rounding bound on g (module docstring,
    Numerics).  With it, ``_locate`` proves points a <= b around the root
    where g's computed sign is positive at every r <= a and negative at
    every r >= b, and bisection takes those signs from position: it
    evaluates g only at the midpoints inside (a, b), and returns the same
    root and iterations as without the bound.  ``guess`` = (x, step)
    seeds ``_locate`` and changes neither.  ``glo`` and ``ghi`` are g(lo)
    and g(hi) where the caller knows them; g is evaluated at neither then.
    """
    if not lo < hi:
        raise BracketError(f"empty bracket: lo = {lo!r}, hi = {hi!r}")
    if glo is None:
        glo = g(lo)
    if ghi is None:
        ghi = g(hi)
    if not glo > 0.0:
        raise BracketError(f"bracket violation: g({lo!r}) = {glo!r} must be positive")
    if ghi > 0.0:
        raise BracketError(f"bracket violation: g({hi!r}) = {ghi!r} must be <= 0")
    a, b = (lo, hi) if err is None else _locate(g, err, lo, glo, hi, ghi, guess)
    # The steps before the first midpoint inside (a, b) take their signs from position alone.  While a float
    # lies inside (a, b) it lies strictly inside [lo, hi] too, so each step shrinks the bracket and a midpoint
    # lands inside (a, b) at last; otherwise the loop below takes every step.
    lo0, hi0, iterations = lo, hi, 0
    if a < 0.5 * (a + b) < b:
        for iterations in count():
            mid = 0.5 * (lo + hi)
            if mid <= a:
                lo = mid
            elif mid >= b:
                hi = mid
            else:
                break
    if lo != lo0:
        glo = None
    if hi != hi0:
        ghi = None
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # float spacing exhausted
        if mid <= a:
            lo, glo = mid, None  # None: the sign came from position, g was not evaluated
        elif mid >= b:
            hi, ghi = mid, None
        else:
            gmid = g(mid)
            if gmid > 0.0:
                lo, glo = mid, gmid
            else:
                hi, ghi = mid, gmid
        iterations += 1
    root = 0.5 * (lo + hi)  # lo or hi: no float lies between them
    return root, iterations, glo if root == lo else ghi


def _locate(g, err, lo: float, glo: float, hi: float, ghi: float, guess=None) -> tuple[float, float]:
    """Points a <= b near the root of g with g(a) > 2 err(a) and g(b) < -2 err(b).

    A guess (x, step) is probed first: at x, then toward the root from the
    last probe, step further and four times that after each probe on the
    same side, until probes lie on both sides of the root.  Illinois steps
    (Dowell and Jarratt, BIT 1971) then shrink the bracket [x0, x1] until a
    point lands inside the rounding band |g| <= 2 err.  Unless probes
    closed the bracket, the first step, and each step after the same end
    has moved three times running, bisects it instead: geometrically when
    it spans more than a factor ``_GEOMETRIC``, which reaches a root many
    decades below hi, and arithmetically otherwise, which gets past the
    steep end next to a pole.  Probes then step out from the point in the
    band on each side, first by twice the band's half-width at the
    bracket's secant slope, then four times as far after each probe that
    is still inside it.  Every evaluated point outside the band moves a or
    b; lo and hi stand in for a side that was never proven.  At most
    ``_LOCATE_CAP`` evaluations of g.
    """
    a, b = lo, hi
    budget = _LOCATE_CAP

    def inside_band(x: float, gx: float) -> bool:
        nonlocal a, b
        band = 2.0 * err(x, gx)
        if gx > band:
            a = max(a, x)
        elif gx < -band:
            b = min(b, x)
        return -band <= gx <= band

    x0, f0, y0, x1, f1, y1 = lo, glo, glo, hi, ghi, ghi  # f: Illinois-scaled values, y: computed values
    hit = (hi, ghi) if inside_band(hi, ghi) else None
    side, run = 0, 3  # the end that moved last and how many times running; 3 makes the first step bisect
    if guess is not None and hit is None:
        x, step = guess
        probed = 0  # bit 1: x0 is a probe, bit 2: x1 is
        while budget and x0 < x < x1:
            gx = g(x)
            budget -= 1
            if inside_band(x, gx):
                hit = (x, gx)
                break
            if gx > 0.0:
                x0, f0, y0, probed = x, gx, gx, probed | 1
                x += step
            else:
                x1, f1, y1, probed = x, gx, gx, probed | 2
                x -= step
            if probed == 3:
                run = 0  # both ends are probes: Illinois goes on with a secant step
                break
            step *= 4.0
    while hit is None and budget:
        bisect = run >= 3
        if not bisect:
            # step from the end nearer the root in value, so a huge |g| at the other end does not cancel x away
            x = x0 + (x1 - x0) * (f0 / (f0 - f1)) if f0 < -f1 else x1 - (x1 - x0) * (f1 / (f1 - f0))
        elif x0 > 0.0 and x1 > _GEOMETRIC * x0:
            x = math.sqrt(x0) * math.sqrt(x1)
        else:
            x = 0.5 * (x0 + x1)
        if not x0 < x < x1:
            x = 0.5 * (x0 + x1)
            if not x0 < x < x1:
                break  # x0 and x1 are adjacent floats, both outside the band
        gx = g(x)
        budget -= 1
        if inside_band(x, gx):
            hit = (x, gx)
        moved = 1 if gx > 0.0 else -1
        run = 1 if bisect or moved != side else run + 1
        side = moved
        if moved > 0:
            x0, f0, y0 = x, gx, gx
            if run > 1:
                f1 *= 0.5
        else:
            x1, f1, y1 = x, gx, gx
            if run > 1:
                f0 *= 0.5
    if hit is None:
        return a, b
    x_hit, g_hit = hit
    width = 2.0 * err(x_hit, g_hit) * (x1 - x0) / (y0 - y1)
    for direction in (-1.0, 1.0):
        step = 2.0 * width
        while budget:
            x = x_hit + direction * step
            if x == x_hit:
                x = math.nextafter(x_hit, direction * math.inf)
            if not a < x < b:
                break  # this side is proven closer in already
            budget -= 1
            if not inside_band(x, g(x)):
                break
            step = 4.0 * abs(x - x_hit)
    return a, b


def _margin_error(b: Profile):
    """The rounding bound err(r, m(r)) of ``univalence_margin`` on b, or None where it cannot serve (Numerics)."""
    k = (_TERM_OPS + len(b.linear) + len(b.excess) + 1) * _U
    lam = b.lead
    if lam is None:
        return lambda r, m: k * (2.0 - m)
    if k * (1.0 + lam * lam) >= (lam - 1.0) * (lam + 1.0):  # (L - 1)(L + 1) keeps L^2 - 1 accurate near L = 1
        return None  # m + err need not decrease
    return lambda r, m: k * (2.0 * lam / (lam - r) - m)


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


def _scaled_power(c: float, r: float, n: int) -> float:
    """c r^n; where r^n alone falls below the normal range, r's mantissa is raised to n and c r^n scaled back."""
    power = r**n
    if power >= _TINY:
        return c * power
    mantissa, exponent = math.frexp(r)  # mantissa**n >= 2^-n stays normal for every n <= MAX_ORDER + 1
    return math.ldexp(c * mantissa**n, exponent * n)


def _sigma(r: float, b: Profile) -> float:
    total = r if b.lead is None else _lead_sigma(r, b.lead)
    for k, _, c in b.linear:
        total -= _scaled_power(c, r, k + 1)
    for k, gap in b.excess:
        total -= _scaled_power(gap, r, k + 2) / (1.0 - r)
    return total


def radii(b: Profile, _guess=None) -> RadiiResult:
    """Radii of any profile (theorems 1-4): rho is the zero of its margin, sigma = s(rho).

    The bracket is (0, 1/L] for a derivative lead and (0, 1] otherwise,
    clamped below the pole when a modulus term is present.  Closed forms
    skip the bisection: rho = 1 when the margin is 1 minus polynomial
    weights summing to at most 1 (the identity map, light Schwarz-case
    bounds), the exact root of a linear Schwarz-case margin, and rho = 1/L
    when roundoff leaves the margin a few ulp positive there.  ``_guess``
    = (x, step) seeds the solve (``_Sweep``) and changes no result.
    """
    margin = _margin_of(b)
    plain = b.lead is None and not b.excess
    hi, ghi = b.upper(_CLAMP), None  # ghi = m(hi), which only a derivative lead can leave positive
    _require_in_domain(hi, b)  # the margin is evaluated only on [0, hi]
    if b.lead is not None:
        ghi = margin(hi)
        if b.modulus and ghi > 0.0:
            hi = 1.0 / b.lead  # the derivative factor vanishes here, forcing the margin nonpositive
            _require_in_domain(hi, b)
            ghi = margin(hi)
    if plain and sum(w for _, w, _ in b.linear) <= 1.0:
        rho, iterations, grho = 1.0, 0, 0.0  # the margin stays positive inside the disk: no root to miss
    elif plain and not b.modulus and b.order == 2:
        rho, iterations, grho = 1.0 / b.linear[0][1], 0, None  # linear margin, so take the exact root
    elif ghi is not None and ghi > 0.0:
        # exactly zero there in exact arithmetic when no higher bound bites;
        # roundoff can leave it a few ulp positive, making hi itself the root
        rho, iterations, grho = hi, 0, ghi
    else:
        # every margin is exactly 1 at r = 0 (Numerics)
        rho, iterations, grho = _bisect_decreasing(margin, 0.0, hi, _margin_error(b), 1.0, ghi, _guess)
    residual = abs(margin(rho) if grho is None else grho)
    sigma = _sigma(rho, b)
    flags = () if sigma > 0.0 else ("degenerate-sigma",)
    if residual > _RESIDUAL_CONTRACT:
        flags += ("residual-above-contract",)
    return RadiiResult(b.theorem, rho, sigma, residual, iterations, flags=flags)


deriv_radii = normalized_radii = modulus_radii = mixed_radii = radii


class _Sweep:
    """The guesses that seed the solves of a table's rows, each from the rows before it (Numerics, *Seeds*)."""

    def __init__(self):
        self.guess = None  # (x, step) for the next row's solve; None for the first row
        self._last = None  # the last row's rho

    def solved(self, rho: float) -> None:
        """Take the rho of the row just solved: row 2 is guessed at row 1's rho, a later row linearly from two."""
        step = _SEED_STEP * rho if self.guess is None else abs(rho - self.guess[0])  # the miss of the last guess
        self.guess = (rho if self._last is None else 2.0 * rho - self._last, step)
        self._last = rho


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
    return RadiiResult(
        theorem, res.rho, res.sigma, res.residual, res.iterations, math.cosh(res.sigma), math.sinh(res.sigma), flags
    )


def log_bound_from_modulus(m_star: float) -> float:
    """Map a factor modulus bound m* > 1 to the log-part bound log(m*) + pi."""
    m_star = _require_finite(m_star, "factor modulus bound")
    if not m_star > 1.0:
        raise DomainError(f"factor modulus bound must exceed 1, got {m_star!r}")
    return math.log(m_star) + math.pi


def log_deriv_radii(b: Profile) -> RadiiResult:
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
    """Prior sharp order-2 result under derivative bounds L1 >= 0 and L0 = lam2 > 1.

    Errors name lam2 lambda0, as the CLI flag does.
    """
    lam1 = _require_finite(lam1, "lambda1")
    lam2 = _require_finite(lam2, "lambda0")
    if lam1 < 0.0:
        raise DomainError(f"lambda1 must be nonnegative, got {lam1!r}")
    if not lam2 > 1.0:
        raise DomainError(f"lambda0 must exceed 1, got {lam2!r}")
    _require_power_finite(lam2, "lambda0", 3)
    # the smaller root of 2 L1 r^2 - u L2 r + L2 with u = 2 L1 + L2, divided through by u so no product overflows
    u = 2.0 * lam1 + lam2
    if not math.isfinite(u):
        raise DomainError(f"lambda1 = {lam1!r} is too large: 2 * lambda1 overflows a float")
    r1 = 2.0 / (u * (1.0 + math.sqrt(1.0 - 8.0 * (lam1 / u) / lam2 / u)))
    return r1, _lead_sigma(r1, lam2) - lam1 * r1 * r1


def bianalytic_bounded_baseline(lam: float) -> tuple[float, float]:
    """Prior order-2 Schwarz-case result: r2 = 1 for L1 = lam <= 1/2, else 1/(2 L1).

    Errors name lam lambda1, as the CLI flag does.
    """
    lam = _require_finite(lam, "lambda1")
    if lam < 0.0:
        raise DomainError(f"lambda1 must be nonnegative, got {lam!r}")
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

    k = (2 * p + 10) * _U  # the rounding bound of the margin (module docstring, Numerics)
    r3, _, _ = _bisect_decreasing(margin, 0.0, _CLAMP, lambda r, g: k * (2.0 - g), 1.0)
    big_r3 = r3
    for k in range(1, p):
        big_r3 -= _scaled_power(1.0, r3, k + 1)
    for k in range(p):
        big_r3 -= _scaled_power(m, r3, k + 2) / (1.0 - r3)
    return r3, big_r3
