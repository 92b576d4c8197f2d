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
points are checked against the disk once, each power of conj(z) is built
once (``_conj_powers`` yields them one at a time), and each component's
value and derivative are evaluated once.  The derivatives may be taken on
one slice of the points and F on another, so one pass serves checks on
several point sets laid out in one array: ``verify.witness_pass`` lays
out the Jacobian grid, the boundary circle and the coverage circle.

A component may declare ``real``: its Taylor coefficients are real, so
A(conj z) = conj A(z) and A'(conj z) = conj A'(z).  ``PolyAnalyticFn.real``
holds when every component declares it, and then F, F_z and F_zbar at
conj z are the conjugates of their values at z, which lets
``verify.witness_pass`` evaluate only the closed upper half of a set of
points symmetric about the real axis.  A component without the
declaration counts as not real.  For the extremal components the
arithmetic below keeps that mirror exact: each value at conj z equals the
conjugate of the value at z, and so has the same bits, except that a
zero may differ in its sign.  At order 1 F_zbar is a +0 array.  Each
sum adds its terms in the order of the components, in place into the
newest term (``_add_into``), so ``poly_eval`` rounds as ``poly_jet``'s F
does, and no point's value depends on the points beside it.  An output
never aliases an array being read: a component returns new arrays and
leaves its points alone, and ``_add_into`` writes only into a term its
caller has just made, so every evaluation leaves its input unchanged.
``_require_in_disk`` keeps a point a Python number, a real one real, and
makes anything else a complex array; ``_cmul`` multiplies as Python
multiplies two complex numbers, so a point and an array round alike;
``_ufunc`` applies a numpy function and hands a point back as a Python
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ._lazy import lazy_module
from .errors import DomainError

np = lazy_module("numpy")

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
        worst = float(np.abs(z).max(initial=0.0))
    if not worst <= 1.0 + _DISK_SLACK:  # a NaN point fails too
        raise DomainError(f"evaluation point must satisfy |z| <= 1, got |z| = {worst!r}")
    return z


def _cmul(a, b):
    """a * b at a point or elementwise, rounded as Python's complex product.

    numpy's complex multiply may fuse a multiply with an add, which rounds
    differently.  In a * Re(b) + a * (i Im(b)) each product has a factor
    with a zero part, so it rounds once per component whether fused or
    not, and the sum then rounds as Python's does.  The second product is
    added in place into the first.
    """
    out = a * (b.real + 0j)
    out += a * (1j * b.imag)
    return out


def _ufunc(f, w):
    """The numpy function f at w, a point or an array; a point's numpy scalar comes back as a Python number."""
    out = f(w)
    return out if out.ndim else out.item()


class Component(Protocol):
    """An analytic component: A(z) and A'(z) at a point or at every point of an array.

    A constant A' may come back as one number for every point of an array.
    A component with real Taylor coefficients may say so with a true
    ``real`` attribute; one without it counts as not real.
    """

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

    @property
    def real(self) -> bool:
        """Whether every component declares real coefficients, so that F(conj z) = conj F(z)."""
        return all(getattr(comp, "real", False) for comp in self.components)

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

    def __call__(self, z):
        return logp_eval(self, z)


def _conj_powers(z, count: int):
    """conj z, conj z^2, ... up to conj z^(count - 1), one at a time; each is the one before times conj z, by ``_cmul``."""
    zbar = z.conjugate()
    power = None
    for _ in range(count - 1):
        power = zbar if power is None else _cmul(power, zbar)
        yield power


def _add_into(term, acc):
    """acc + term, summed into term, which its caller has just made: no array is allocated."""
    term += acc
    return term


def _part(a, part):
    """a at the points that the slice part picks; a point, and every point (part None), as they are."""
    return a if part is None else a[part]


def poly_eval(F: PolyAnalyticFn, z):
    z = _require_in_disk(z)
    lead, *higher = F.components
    acc = lead.value(z)
    for comp, power in zip(higher, _conj_powers(z, F.order)):
        acc = _add_into(_cmul(power, comp.value(z)), acc)
    return acc


def poly_jet(F: PolyAnalyticFn, z, *, value=True, jet: slice | None = None):
    """F, F_z and F_zbar in one pass; F rounds as ``poly_eval``.

    F_z and F_zbar are taken at the points z[jet], every point when jet is
    None.  F is taken at every point (value True), at none (value False: F
    comes back as None), or at the points z[value] of a slice.  z is
    checked against the disk once, and each power of conj z is built once,
    over every point.  Each component's derivative is evaluated once, at
    z[jet], and its value once: a higher component's at every point, where
    F_zbar and F share it, and the lead's only where F is taken.  Each sum
    adds its terms in place as the components are read, so no list of
    component arrays is kept.
    """
    z = _require_in_disk(z)
    part = None if value is True else value
    lead, *higher = F.components
    at_jet = _part(z, jet)
    fz = lead.derivative(at_jet)
    f = None if value is False else lead.value(_part(z, part))
    if not higher:  # F_zbar = 0: a +0 at every point, whatever the sign of z
        fzbar = 0j if isinstance(z, (float, complex)) else np.zeros(at_jet.shape, dtype=complex)
    for k, (comp, power) in enumerate(zip(higher, _conj_powers(z, F.order)), start=1):
        v = comp.value(z)
        fz = _add_into(_cmul(_part(power, jet), comp.derivative(at_jet)), fz)
        # F_zbar = A_1 + 2 conj z A_2 + 3 conj z^2 A_3 + ...: the power before this one
        fzbar = _part(v, jet) if k == 1 else _add_into(_cmul(k * _part(below, jet), _part(v, jet)), fzbar)
        if f is not None:
            f = _add_into(_cmul(_part(power, part), _part(v, part)), f)
        below = power
    if not isinstance(z, (float, complex)) and np.ndim(fz) == 0:
        fz = np.full(at_jet.shape, fz, dtype=complex)  # a lead of constant derivative with no component above it
    return f, fz, fzbar


def jacobian(F: PolyAnalyticFn, z):
    """|F_z|^2 - |F_zbar|^2; positive exactly where F is sense-preserving."""
    _, fz, fzb = poly_jet(F, z, value=False)
    fz, fzb = abs(fz), abs(fzb)
    return fz * fz - fzb * fzb


def logp_eval(f: LogPAnalyticFn, z):
    return _ufunc(np.exp, poly_eval(f.log_part, z))
