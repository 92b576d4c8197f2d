"""Poly-analytic function values and Wirtinger-calculus functionals.

An order-p function is stored as its p analytic components A_0..A_{p-1};
the value at z is sum_k conj(z)^k A_k(z).  A component is anything with
``value`` and ``derivative`` methods that evaluate A_k and A_k' at a point
or at every point of an array (``Component``): the closed-form extremal
components and ``TruncatedTaylorSeries`` both are.  The structural
derivatives

    F_z    = sum_k conj(z)^k A_k'(z)
    F_zbar = sum_k k conj(z)^(k-1) A_k(z)

come straight from the components; numerical differencing exists only as
a test oracle.  Sense preservation is exposed through the sign of the
Jacobian |F_z|^2 - |F_zbar|^2.

``poly_eval``, ``logp_eval``, ``poly_jet`` and ``jacobian`` take a point
and return a Python number, or take an array of points and return an
array; both run the same arithmetic.  ``poly_jet`` is the one source of
F_z and F_zbar: it returns F, F_z and F_zbar from one pass, in which the
points are checked against the disk once, the powers of conj(z) are built
once (``_conj_powers``), and each component's value and derivative are
evaluated once.  The sums ``_conj_sum`` and ``_zbar_sum`` read those
powers, so ``poly_eval`` rounds as ``poly_jet``'s F does.
``_require_in_disk`` keeps a point a Python number, a real one real, and
makes anything else a complex array; ``_cmul`` multiplies as Python
multiplies two complex numbers, so a point and an array round alike;
``_ufunc`` applies a numpy function and hands a point back as a Python
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ._lazy import lazy_numpy
from .errors import DomainError

np = lazy_numpy()

_DISK_SLACK = 1e-9  # tolerate boundary roundoff in |z| <= 1 checks


def _require_in_disk(z):
    """z as a Python float or complex when it is one number, else as a complex array; every |z| must be at most 1.

    A real point stays real, so sums on the real axis run in real arithmetic,
    which rounds there as complex arithmetic does.
    """
    if isinstance(z, (int, float, complex)):
        z = complex(z) if isinstance(z, complex) else float(z)
        worst = abs(z)
    else:
        z = np.asarray(z, dtype=complex)
        worst = float(np.max(np.abs(z), initial=0.0))
    if worst > 1.0 + _DISK_SLACK:
        raise DomainError(f"evaluation point must satisfy |z| <= 1, got |z| = {worst!r}")
    return z


def _cmul(a, b):
    """a * b at a point or elementwise, rounded as Python's complex product.

    numpy's complex multiply may fuse a multiply with an add, which rounds
    differently.  In a * Re(b) + a * (i Im(b)) each product has a factor
    with a zero part, so it rounds once per component whether fused or
    not, and the sum then rounds as Python's does.
    """
    return a * (b.real + 0j) + a * (1j * b.imag)


def _ufunc(f, w):
    """The numpy function f at w, a point or an array; a point's numpy scalar comes back as a Python number."""
    out = f(w)
    return out if out.ndim else out.item()


class Component(Protocol):
    """An analytic component: A(z) and A'(z) at a point or at every point of an array."""

    def value(self, z): ...

    def derivative(self, z): ...


@dataclass(frozen=True)
class PolyAnalyticFn:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise DomainError("a poly-analytic function needs at least one component")
        object.__setattr__(self, "components", comps)

    @property
    def order(self) -> int:
        return len(self.components)

    def __call__(self, z):
        return poly_eval(self, z)

    @classmethod
    def normalized(cls, components) -> "PolyAnalyticFn":
        """Constructor enforcing A_k(0) = 0 for every k and A_0'(0) = 1."""
        fn = cls(tuple(components))
        for k, comp in enumerate(fn.components):
            if comp.value(0j) != 0:
                raise DomainError(f"component {k} must vanish at the origin (A(0) = 0)")
        if fn.components[0].derivative(0j) != 1:
            raise DomainError("leading component must have unit derivative at the origin (A'(0) = 1)")
        return fn


@dataclass(frozen=True)
class LogPAnalyticFn:
    """Product function f = exp(F) for a poly-analytic F with F(0) = 0."""

    log_part: PolyAnalyticFn

    def __post_init__(self) -> None:
        if poly_eval(self.log_part, 0j) != 0:
            raise DomainError("log part must vanish at the origin so the product equals 1 there")

    @property
    def order(self) -> int:
        return self.log_part.order

    def __call__(self, z):
        return logp_eval(self, z)


def _conj_powers(z, count: int) -> list:
    """[conj z, conj z^2, ...] up to conj z^(count - 1), and at least conj z; each power is the one before times conj z, by ``_cmul``."""
    zbar = z.conjugate()
    powers = [zbar]
    for _ in range(count - 2):
        powers.append(_cmul(powers[-1], zbar))
    return powers


def _conj_sum(terms: list, powers: list):
    """sum_k conj(z)^k t_k over the terms t_0, t_1, ... and the powers conj z, conj z^2, ...; t_0 is taken as it is."""
    acc = terms[0]
    for t, power in zip(terms[1:], powers):
        acc = acc + _cmul(power, t)
    return acc


def _zbar_sum(z, higher: list, powers: list):
    """sum_k k conj(z)^(k-1) v_k over the values v_1, v_2, ... of the higher components and the powers conj z, ....

    v_1 is taken as it is; with no higher component the sum is 0 at z.
    """
    if not higher:
        return 0j * z
    acc = higher[0]
    for k, (v, power) in enumerate(zip(higher[1:], powers), start=2):
        acc = acc + _cmul(k * power, v)
    return acc


def poly_eval(F: PolyAnalyticFn, z):
    z = _require_in_disk(z)
    return _conj_sum([comp.value(z) for comp in F.components], _conj_powers(z, F.order))


def poly_jet(F: PolyAnalyticFn, z, *, value: bool = True):
    """F(z), F_z(z) and F_zbar(z) in one pass; F rounds as ``poly_eval``.

    z is checked against the disk once, the powers of conj z are built
    once, and each component's value and derivative are evaluated once.
    With value false, F(z) comes back as None and the leading component's
    value, which only F needs, is not evaluated.
    """
    z = _require_in_disk(z)
    powers = _conj_powers(z, F.order)
    fz = _conj_sum([comp.derivative(z) for comp in F.components], powers)  # the derivatives are freed here
    lead, *higher = F.components
    values = [comp.value(z) for comp in higher]
    fzbar = _zbar_sum(z, values, powers)
    return (_conj_sum([lead.value(z), *values], powers) if value else None), fz, fzbar


def jacobian(F: PolyAnalyticFn, z):
    """|F_z|^2 - |F_zbar|^2; positive exactly where F is sense-preserving."""
    _, fz, fzb = poly_jet(F, z, value=False)
    fz, fzb = abs(fz), abs(fzb)
    return fz * fz - fzb * fzb


def logp_eval(f: LogPAnalyticFn, z):
    return _ufunc(np.exp, poly_eval(f.log_part, z))
