"""50-digit mpmath reference for the univalence and covered-disk radii.

Written out from the theorem statements, apart from the program.  Every
profile is a leading term plus one term per higher component k = 1..p-1:

    margin m(r) = lead_m(r) - sum_k comp_m_k(r)
    sigma  s(r) = lead_s(r) - sum_k comp_s_k(r)

with s'(r) = m(r), so rho is the unique zero of the strictly decreasing
margin and sigma = s(rho) is stationary there.

    leading term             lead_m(r)                      lead_s(r)
    derivative bound L > 1   L (1 - L r) / (L - r)          L^2 r + (L^3 - L) log(1 - r/L)
    identity (Schwarz case)  1                              r
    modulus bound M >= 1     1 - g0 r (2 - r) / (1 - r)^2   r - g0 r^2 / (1 - r)

    component k              comp_m_k(r)                                      comp_s_k(r)
    derivative bound L_k     (k+1) L_k r^k                                    L_k r^(k+1)
    modulus bound M_k        (k+1) r^k + g r^(k+1) (2 - r + k(1-r)) / (1-r)^2 r^(k+1) + g r^(k+2) / (1-r)

where g = M - 1/M.  Theorems 1-4 combine these as derivative/derivative,
identity/derivative, modulus/modulus and derivative/modulus; theorems 5-8
keep rho and sigma and add the covered disk w = cosh(sigma),
r = sinh(sigma), with factor bounds m* entering as M = log(m*) + pi.

Each term also returns the sum of the magnitudes of its summands, which
bounds the rounding error of a float64 evaluation.  ``check_radius``
turns that into the tolerance of a float64 result.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

DIGITS = 50
mpmath.mp.dps = DIGITS

#: Relative float64 tolerance: 2^13 unit roundoffs (about 9.1e-13) of the
#: magnitude of the summands, covering the rounding of a few dozen
#: float64 operations with a wide margin.
FLOAT_TOL = mpf(2) ** -40
#: The result contract of the program: |m(rho)| <= 1e-12 at a true root.
RESIDUAL_CONTRACT = mpf("1e-12")

_SOLVE_REL = mpf(10) ** -(DIGITS - 8)


def log_bound(m_star) -> mpf:
    """Factor modulus bound m* > 1 mapped to the log-part bound log(m*) + pi."""
    return mpmath.log(mpf(m_star)) + mpmath.pi


def _gap(m) -> mpf:
    m = mpf(m)
    return m - 1 / m


@dataclass(frozen=True)
class Terms:
    margin: mpf
    margin_scale: mpf
    sigma: mpf
    sigma_scale: mpf


class Profile:
    """A leading term and component terms; see the module docstring.

    ``lead`` is ("deriv", L), ("identity",) or ("modulus", M); each entry
    of ``comps`` is ("deriv", L_k) or ("modulus", M_k), for k = 1, 2, ...
    """

    def __init__(self, lead: tuple, comps: tuple = ()):
        self.lead = (lead[0],) + tuple(mpf(v) for v in lead[1:])
        self.comps = tuple((kind, mpf(v)) for kind, v in comps)
        self.hi = min(1 / self.lead[1], mpf(1)) if self.lead[0] == "deriv" else mpf(1)
        gaps = [_gap(v) for kind, v in self.comps if kind == "modulus"]
        if self.lead[0] == "modulus":
            gaps.append(_gap(self.lead[1]))
        # a modulus term with M > 1 puts a pole at r = 1, so m(1-) = -inf
        self.pole = any(g > 0 for g in gaps)

    def terms(self, r) -> Terms:
        r = mpf(r)
        kind = self.lead[0]
        if kind == "deriv":
            lam = self.lead[1]
            m = lam * (1 - lam * r) / (lam - r)
            m_scale = lam * (1 + lam * r) / (lam - r)
            s1, s2 = lam * lam * r, (lam**3 - lam) * mpmath.log1p(-r / lam)
            s, s_scale = s1 + s2, abs(s1) + abs(s2)
        elif kind == "identity":
            m, m_scale, s, s_scale = mpf(1), mpf(1), r, r
        else:
            g = _gap(self.lead[1])
            a = g * r * (2 - r) / (1 - r) ** 2 if g else mpf(0)
            b = g * r * r / (1 - r) if g else mpf(0)
            m, m_scale, s, s_scale = 1 - a, 1 + a, r - b, r + b
        for k, (ckind, v) in enumerate(self.comps, start=1):
            if ckind == "deriv":
                cm, cs = (k + 1) * v * r**k, v * r ** (k + 1)
            else:
                g = _gap(v)
                cm = (k + 1) * r**k
                cs = r ** (k + 1)
                if g:
                    cm += g * r ** (k + 1) * (2 - r + k * (1 - r)) / (1 - r) ** 2
                    cs += g * r ** (k + 2) / (1 - r)
            m, m_scale = m - cm, m_scale + abs(cm)
            s, s_scale = s - cs, s_scale + abs(cs)
        return Terms(m, m_scale, s, s_scale)

    def margin(self, r) -> mpf:
        return self.terms(r).margin


class PolyModulusBaseline:
    """The prior order-p result under one modulus bound M on every component.

    m(r) = 1 - M [r(2-r) + sum_{k=1}^{p-1} r^k (1 + k - k r)] / (1-r)^2,
    s(r) = r - sum_{k=1}^{p-1} r^(k+1) - sum_{k=0}^{p-1} M r^(k+2) / (1-r).

    Not sharp: s' differs from m, so sigma is not stationary at rho here.
    """

    def __init__(self, m, p: int):
        self.m = mpf(m)
        self.p = int(p)
        self.hi = mpf(1)
        self.pole = True

    def terms(self, r) -> Terms:
        r = mpf(r)
        inner = r * (2 - r)
        for k in range(1, self.p):
            inner += r**k * (1 + k - k * r)
        a = self.m * inner / (1 - r) ** 2
        powers = sum(r ** (k + 1) for k in range(1, self.p))
        b = sum(self.m * r ** (k + 2) / (1 - r) for k in range(self.p))
        return Terms(1 - a, 1 + a, r - powers - b, r + powers + b)

    def margin(self, r) -> mpf:
        return self.terms(r).margin


def theorem_profile(theorem: int, lambda0=None, lambdas=(), ms=(), mstars=()) -> Profile:
    """The profile of theorem 1..8 from the flag values, as the CLI takes them."""
    base = theorem - 4 if theorem > 4 else theorem
    if base == 1:
        return Profile(("deriv", lambda0), tuple(("deriv", v) for v in lambdas))
    if base == 2:
        return Profile(("identity",), tuple(("deriv", v) for v in lambdas))
    bounds = tuple(log_bound(v) for v in mstars) if theorem > 4 else tuple(mpf(v) for v in ms)
    if base == 3:
        return Profile(("modulus", bounds[0]), tuple(("modulus", v) for v in bounds[1:]))
    return Profile(("deriv", lambda0), tuple(("modulus", v) for v in bounds))


def _upper_bracket(prof) -> mpf:
    """A point b <= hi with m(b) <= 0, or hi itself when m(hi) > 0 (no root)."""
    if not prof.pole:
        return prof.hi
    b = prof.hi - mpf(2) ** -8
    while prof.margin(b) > 0:
        b = prof.hi - (prof.hi - b) / 256
    return b


def solve_rho(prof) -> mpf:
    """Zero of the decreasing margin on (0, hi]; hi when the margin stays positive.

    Bisects geometrically while the bracket spans more than a factor of
    two, so roots far below 2^-1000 take a few dozen steps.
    """
    hi = _upper_bracket(prof)
    if prof.margin(hi) >= 0:
        return hi
    lo = mpf(0)
    while hi - lo > hi * _SOLVE_REL:
        if lo == 0:
            mid = hi * mpf(2) ** -64
        elif hi > 2 * lo:
            mid = mpmath.sqrt(lo * hi)
        else:
            mid = (lo + hi) / 2
        if prof.margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _polish(prof, guess) -> mpf | None:
    """Secant iteration on the margin from a float guess; None when it fails to certify."""
    x0 = mpf(guess)
    if not 0 < x0 < prof.hi:
        return None
    x1 = x0 * (1 + mpf(2) ** -20)
    if x1 >= prof.hi:
        x1 = x0 * (1 - mpf(2) ** -20)
    f0, f1 = prof.margin(x0), prof.margin(x1)
    for _ in range(30):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not 0 < x2 < prof.hi:
            return None
        x0, f0, x1, f1 = x1, f1, x2, prof.margin(x2)
        if abs(x1 - x0) <= x1 * _SOLVE_REL:
            break
    width = x1 * mpf(10) ** -(DIGITS - 15)
    if prof.margin(x1 - width) > 0 >= prof.margin(min(x1 + width, prof.hi)):
        return x1
    return None


def has_root(prof) -> bool:
    """False when the margin stays positive up to hi, so that rho = hi is not a zero."""
    return prof.pole or prof.margin(prof.hi) <= 0


def reference_rho(prof, guess=None) -> mpf:
    """The 50-digit rho; a float guess only speeds it up, and is certified by a sign change."""
    if guess is not None and has_root(prof):
        polished = _polish(prof, guess)
        if polished is not None:
            return polished
    return solve_rho(prof)


def check_radius(prof, rho: float, sigma: float, w=None, r=None, name: str = "") -> list[str]:
    """Problems with a float64 (rho, sigma[, w, r]) against the 50-digit reference.

    rho may differ from the true zero by the float64 margin error over the
    slope, 2^-40 (rho + S_m / |m'|); sigma by 2^-40 S_s plus what the rho
    error moves it by, to second order where sigma is stationary.  At a true zero |m(rho)| must meet the 1e-12
    contract.  w and r must be cosh and sinh of sigma.
    """
    problems: list[str] = []
    tag = f"{name} " if name else ""
    if not (mpmath.isfinite(rho) and mpmath.isfinite(sigma)):
        return [f"{tag}non-finite result rho = {rho!r}, sigma = {sigma!r}"]
    ref = reference_rho(prof, rho)
    at = prof.terms(ref)
    h = ref * mpf(2) ** -30
    lo, hi = max(ref - h, mpf(0)), min(ref + h, prof.hi)
    at_lo, at_hi = prof.terms(lo), prof.terms(hi)
    slope = abs(at_hi.margin - at_lo.margin) / (hi - lo)
    sigma_slope = abs(at_hi.sigma - at_lo.sigma) / (hi - lo)
    tol_rho = FLOAT_TOL * (ref + (at.margin_scale / slope if slope else mpf("inf")))
    if abs(mpf(rho) - ref) > tol_rho:
        problems.append(f"{tag}rho = {rho!r}, reference {mpmath.nstr(ref, 20)} (tolerance {mpmath.nstr(tol_rho, 3)})")
    if has_root(prof):
        residual = abs(prof.margin(rho)) if 0 <= rho and not (prof.pole and rho >= 1) else mpf("inf")
        if residual > RESIDUAL_CONTRACT:
            problems.append(f"{tag}residual |m(rho)| = {mpmath.nstr(residual, 3)} above the 1e-12 contract")
    tol_sigma = FLOAT_TOL * at.sigma_scale + sigma_slope * tol_rho + slope * tol_rho**2
    if abs(mpf(sigma) - at.sigma) > tol_sigma:
        problems.append(
            f"{tag}sigma = {sigma!r}, reference {mpmath.nstr(at.sigma, 20)} (tolerance {mpmath.nstr(tol_sigma, 3)})"
        )
    if w is not None:
        cw, sw = mpmath.cosh(at.sigma), mpmath.sinh(at.sigma)
        if abs(mpf(w) - cw) > FLOAT_TOL * cw + abs(sw) * tol_sigma:
            problems.append(f"{tag}w = {w!r}, reference cosh(sigma) = {mpmath.nstr(cw, 20)}")
        if abs(mpf(r) - sw) > FLOAT_TOL * abs(sw) + cw * tol_sigma:
            problems.append(f"{tag}r = {r!r}, reference sinh(sigma) = {mpmath.nstr(sw, 20)}")
    return problems


def classical_landau(m) -> tuple[mpf, mpf]:
    """r0 = 1/(M + sqrt(M^2 - 1)) and R0 = M r0^2 for the classical bounded case."""
    m = mpf(m)
    r0 = 1 / (m + mpmath.sqrt(m * m - 1))
    return r0, m * r0 * r0
