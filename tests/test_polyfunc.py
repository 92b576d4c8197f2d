"""Poly-analytic evaluation and Wirtinger functionals against differencing."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polylandau import (
    DomainError,
    LogPAnalyticFn,
    PolyAnalyticFn,
    TruncatedTaylorSeries,
    jacobian,
    logp_eval,
    poly_eval,
    poly_jet,
    witness_pass,
)
from polylandau.extremal import BoundedRatio, DerivLead, Linear, extremal_fn
from polylandau.radii import DerivAll, DerivNormalized, MixedDerivModulus, ModulusAll
from polylandau.verify import GridSpec
import _oracles as reference
from _oracles import fd_wirtinger, fd_zbar_power


def _schwarz_pair() -> PolyAnalyticFn:
    # F(z) = z - conj(z) z
    return PolyAnalyticFn.normalized(
        [TruncatedTaylorSeries((0, 1)), TruncatedTaylorSeries((0, -1))]
    )


def test_poly_eval_real_point():
    F = _schwarz_pair()
    # 0.5 - 0.5 * 0.5 = 0.25
    assert poly_eval(F, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_poly_eval_mixed_components():
    comps = [TruncatedTaylorSeries((0, 1, 1)), TruncatedTaylorSeries((0, 2))]
    F = PolyAnalyticFn(tuple(comps))
    z = 0.5j
    expected = (z + z * z) + z.conjugate() * (2 * z)
    assert poly_eval(F, z) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.25 + 0.5j, abs=1e-15)


def test_wirtinger_structural_values():
    F = _schwarz_pair()
    _, fz, fzbar = poly_jet(F, 0.5 + 0j)
    assert fz == pytest.approx(1 - 0.5, abs=1e-15)
    assert fzbar == pytest.approx(-0.5, abs=1e-15)


def test_normalized_rejects_bad_leading_coefficient():
    with pytest.raises(DomainError):
        PolyAnalyticFn.normalized([TruncatedTaylorSeries((0, 2))])
    with pytest.raises(DomainError):
        PolyAnalyticFn.normalized([TruncatedTaylorSeries((0.1, 1))])


def test_analytic_function_has_zero_zbar_derivative():
    F = PolyAnalyticFn((TruncatedTaylorSeries((0, 1, 0.5, 0.25)),))
    for z in (0.1, 0.4j, -0.3 + 0.2j):
        assert poly_jet(F, z)[2] == 0


def test_wirtinger_matches_differencing_on_random_samples():
    rng = random.Random(17)
    comps = [
        TruncatedTaylorSeries((0, 1, 0.3, -0.2)),
        TruncatedTaylorSeries((0, -0.5, 0.1)),
        TruncatedTaylorSeries((0, 0.25)),
    ]
    F = PolyAnalyticFn(tuple(comps))
    for _ in range(100):
        r = 0.8 * math.sqrt(rng.random())
        t = 2 * math.pi * rng.random()
        z = complex(r * math.cos(t), r * math.sin(t))
        fd_z, fd_zb = fd_wirtinger(lambda w: poly_eval(F, w), z)
        scale = max(1.0, abs(fd_z), abs(fd_zb))
        _, fz, fzbar = poly_jet(F, z)
        assert abs(fd_z - fz) < 1e-6 * scale
        assert abs(fd_zb - fzbar) < 1e-6 * scale


@pytest.mark.parametrize("p", [2, 3])
def test_order_p_annihilated_by_p_fold_conjugate_derivative(p):
    comps = [TruncatedTaylorSeries((0, 1, 0.2))] + [
        TruncatedTaylorSeries((0, 0.4, -0.1)) for _ in range(p - 1)
    ]
    F = PolyAnalyticFn(tuple(comps))
    for z in (0.2, 0.1 + 0.3j, -0.25j):
        assert abs(fd_zbar_power(lambda w: poly_eval(F, w), z, p)) < 1e-4


def test_jacobian_sign_identity():
    # |F_z|^2 - |F_zbar|^2 = 1 - 2 Re z from central differences, apart from the
    # component series; F reverses orientation at 0.7
    F = _schwarz_pair()
    for z in (0.1, 0.3 + 0.2j, -0.4j, 0.7):
        fz, fzb = fd_wirtinger(lambda w: poly_eval(F, w), z)
        assert jacobian(F, z) == pytest.approx(abs(fz) ** 2 - abs(fzb) ** 2, abs=1e-8)


def test_log_product_eval():
    W = PolyAnalyticFn((TruncatedTaylorSeries((0, 1)),))
    f = LogPAnalyticFn(W)
    assert logp_eval(f, 0.25) == pytest.approx(cmath.exp(0.25), abs=1e-14)
    assert f(0j) == pytest.approx(1.0, abs=1e-15)


def test_log_product_requires_vanishing_log_part():
    with pytest.raises(DomainError):
        LogPAnalyticFn(PolyAnalyticFn((TruncatedTaylorSeries((1, 1)),)))


def test_log_product_unit_lambda_at_origin():
    # for f = exp(W) with W normalized, the difference quotient at 0 has modulus 1
    W = PolyAnalyticFn.normalized(
        [TruncatedTaylorSeries((0, 1)), TruncatedTaylorSeries((0, -0.5))]
    )
    f = LogPAnalyticFn(W)
    fd_z, fd_zb = fd_wirtinger(f, 0j, h=1e-7)
    lam = abs(abs(fd_z) - abs(fd_zb))
    assert lam == pytest.approx(1.0, abs=1e-6)


def test_poly_eval_rejects_points_outside_disk():
    with pytest.raises(DomainError):
        poly_eval(_schwarz_pair(), 2.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda F: poly_eval(F, complex("nan")),
        lambda F: poly_eval(F, np.array([0.1, np.nan])),
        lambda F: jacobian(F, float("nan")),
    ],
    ids=["complex", "array", "jacobian"],
)
def test_nan_points_are_outside_the_disk(evaluate):
    with pytest.raises(DomainError, match=r"\|z\| = nan"):
        evaluate(_schwarz_pair())


_component = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=7,
).map(lambda cs: TruncatedTaylorSeries((0j, *cs)))  # c0 = 0, so exp(F) equals 1 at the origin
_log_parts = st.lists(_component, min_size=1, max_size=4).map(lambda comps: PolyAnalyticFn(tuple(comps)))
_disk_points = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=16,
)


@given(_log_parts, _disk_points)
def test_array_eval_matches_the_point_reference(F, zs):
    pts = np.array(zs, dtype=complex)
    assert poly_eval(F, pts).tolist() == [reference.poly_eval(F, z) for z in zs]
    f = LogPAnalyticFn(F)
    # np.exp and cmath.exp may round the last bit differently
    for got, z in zip(logp_eval(f, pts).tolist(), zs):
        want = reference.logp_eval(f, z)
        assert abs(got - want) <= 1e-15 * abs(want)


@given(_log_parts, _disk_points)
def test_array_wirtinger_matches_the_point_reference(F, zs):
    pts = np.array(zs, dtype=complex)
    _, fz, fzbar = poly_jet(F, pts)
    assert fz.tolist() == [reference.wirtinger_z(F, z) for z in zs]
    assert fzbar.tolist() == [reference.wirtinger_zbar(F, z) for z in zs]
    # np.abs and abs may round the last bit differently, and squaring doubles that
    for got, z in zip(jacobian(F, pts).tolist(), zs):
        fz, fzb = abs(reference.wirtinger_z(F, z)), abs(reference.wirtinger_zbar(F, z))
        assert abs(got - reference.jacobian(F, z)) <= 1e-15 * (fz * fz + fzb * fzb)


@given(_log_parts, _disk_points)
def test_a_point_gives_a_python_number_equal_to_the_array_entry(F, zs):
    # a real point stays real inside the sums, and must still round as the complex one does
    pts = np.array(zs, dtype=complex)
    jet = list(zip(*(part.tolist() for part in poly_jet(F, pts))))
    for z, want in zip(zs, jet):
        for point in (z, z.real) if z.imag == 0.0 else (z,):
            got = poly_jet(F, point)
            assert all(type(v) is complex for v in got)
            assert got == want
            assert poly_eval(F, point) == want[0]
    # abs and exp of a point and of an array may round the last bit differently
    f = LogPAnalyticFn(F)
    for z in zs:
        assert type(jacobian(F, z)) is float
        got = logp_eval(f, z)
        assert type(got) is complex
        assert abs(got - reference.logp_eval(f, z)) <= 1e-15 * abs(got)


class _OnePointArray:
    """A component read through its array path one point at a time, for the point references.

    The closed-form components' own point path rounds numpy's complex division and product
    differently (``tests/test_extremal.py`` bounds the gap), so this is how the references and
    the one pass see the same component values.
    """

    def __init__(self, comp):
        self.comp = comp

    def value(self, z):
        return self.comp.value(np.array([z])).tolist()[0]

    def derivative(self, z):
        return np.broadcast_to(self.comp.derivative(np.array([z])), 1).tolist()[0]  # Linear's A' is one number


@st.composite
def _lead_points(draw, lam: float):
    """Points of the disk all near (|z/L| < 1/2), all far, or mixed for the derivative lead of bound L < 2."""
    kind = draw(st.sampled_from(["near", "far", "mixed"]))
    on_axis = draw(st.booleans())
    near = []
    for i in range(draw(st.integers(2, 12))):
        near.append(kind == "near" or (kind == "mixed" and i % 2 == 0))
    pts = []
    for is_near in near:
        # 0.499 L and 0.501 L keep the rounded |z/L| off 1/2; L < 1.99 leaves room for far points
        r = draw(st.floats(0.0, 0.499 * lam) if is_near else st.floats(0.501 * lam, 1.0))
        t = draw(st.sampled_from([0.0, math.pi]) if on_axis else st.floats(0.0, 2.0 * math.pi))
        pts.append(complex(r * math.cos(t), 0.0 if on_axis else r * math.sin(t)))
    return kind, pts


_bounds = st.lists(st.floats(0.0, 2.0), min_size=0, max_size=3)
_moduli = st.lists(st.floats(1.0, 5.0), min_size=1, max_size=4)
_leads = st.floats(1e-6, 0.99).map(lambda d: 1.0 + d)  # L0 from 1 + 1e-6 up to 1.99


@st.composite
def _witness_cases(draw):
    """The closed-form witness of a theorem 1-4 profile and points grouped around its lead's switch."""
    theorem = draw(st.integers(1, 4))
    lam = draw(_leads)
    if theorem == 1:
        b = DerivAll(lam, tuple(draw(_bounds)))
    elif theorem == 2:
        b = DerivNormalized(tuple(draw(_bounds)))
    elif theorem == 3:
        b = ModulusAll(tuple(draw(_moduli)))
    else:
        b = MixedDerivModulus(lam, tuple(draw(_bounds.map(lambda vs: [1.0 + v for v in vs]))))
    kind, pts = draw(_lead_points(lam))
    return extremal_fn(b), lam, kind, pts


@given(_witness_cases())
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
def test_one_pass_matches_the_separate_sums_and_the_point_references(case):
    F, _, _, zs = case
    pts = np.array(zs)
    value, fz, fzbar = poly_jet(F, pts)
    assert value.tolist() == poly_eval(F, pts).tolist()
    none, fz_only, fzbar_only = poly_jet(F, pts, value=False)
    assert none is None
    assert fz_only.tolist() == fz.tolist() and fzbar_only.tolist() == fzbar.tolist()
    G = PolyAnalyticFn(tuple(_OnePointArray(comp) for comp in F.components))
    assert value.tolist() == [reference.poly_eval(G, z) for z in zs]
    assert fz.tolist() == [reference.wirtinger_z(G, z) for z in zs]
    assert fzbar.tolist() == [reference.wirtinger_zbar(G, z) for z in zs]
    for z in zs:  # a point through the one pass: Python numbers, as the point references give them
        got = poly_jet(F, z)
        assert all(type(v) is complex for v in got)
        assert got == (poly_eval(F, z), reference.wirtinger_z(F, z), reference.wirtinger_zbar(F, z))


@given(_leads.flatmap(lambda lam: st.tuples(st.just(lam), _lead_points(lam))))
@settings(deadline=None)
def test_deriv_lead_value_takes_each_points_own_form_on_every_kind_of_array(case):
    lam, (kind, zs) = case
    lead = DerivLead(lam)
    values = lead.value(np.array(zs)).tolist()
    # a one-point array takes that point's form, as the point path does
    assert values == [lead.value(np.array([z])).tolist()[0] for z in zs]
    for z, got in zip(zs, values):
        if z.imag == 0.0:  # on the real axis the point path rounds as numpy does
            assert lead.value(z) == got == reference.deriv_lead_value(lam, z)
        else:
            assert abs(lead.value(z) - got) <= 1e-14 * (1.0 + abs(got))


class _Watched:
    """A component that keeps every array it is handed with a copy of it, to show that nothing writes into one."""

    def __init__(self, comp):
        self.comp, self.seen = comp, []

    def _keep(self, z):
        if isinstance(z, np.ndarray):
            self.seen.append((z, z.copy()))
        return z

    def value(self, z):
        return self.comp.value(self._keep(z))

    def derivative(self, z):
        return self.comp.derivative(self._keep(z))


@given(_witness_cases())
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
def test_evaluations_leave_their_inputs_alone_and_the_lead_derivative_rounds_each_point_alone(case):
    # an evaluation's output never aliases the array it reads: the lead sums its series in two buffers, and the
    # functionals add in place only into arrays they have just made, so the points come back unchanged
    F, lam, _, zs = case
    pts = np.array(zs)
    for comp in (*F.components, DerivLead(lam), BoundedRatio(1.0 + lam), Linear(complex(-lam)), Linear(1 + 0j)):
        comp.value(pts)
        comp.derivative(pts)
        assert pts.tolist() == zs
    for value, jet in ((True, None), (False, None), (slice(1, None), slice(-1))):
        poly_jet(F, pts, value=value, jet=jet)
        assert pts.tolist() == zs
    # the one pass hands its components slices of one node array; at r < L/2 < rho the lead's two circles
    # take its two forms
    G = PolyAnalyticFn(tuple(_Watched(comp) for comp in F.components))
    jet = witness_pass(G, 0.49 * lam, GridSpec(8, 8), 16, min(1.0, 0.51 * lam))
    assert jet.nodes.tobytes() == witness_pass(F, 0.49 * lam, GridSpec(8, 8), 16, min(1.0, 0.51 * lam)).nodes.tobytes()
    assert all(z.tobytes() == copy.tobytes() for comp in G.components for z, copy in comp.seen)
    # the lead's derivative at every point of an array rounds as at that point alone, signed zeros included
    lead = DerivLead(lam)
    assert lead.derivative(pts).tobytes() == np.concatenate([lead.derivative(np.array([z])) for z in zs]).tobytes()
