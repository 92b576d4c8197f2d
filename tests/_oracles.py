"""Brute-force helpers the tests use to cross-check closed forms.

These deliberately avoid the library's own derivative and root-finding
code paths: derivatives come from central differences, roots from plain
grid scans.  Accuracy is modest (1e-6-ish) but independent.
"""

from __future__ import annotations


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
