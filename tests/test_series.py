"""Series arithmetic and principal-branch logarithm."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polylandau import (
    DomainError,
    TruncatedTaylorSeries,
    principal_log,
    series_derivative,
    series_eval,
    series_eval_array,
)
from _oracles import deriv_lead_coeffs


def test_eval_cubic_at_half():
    s = TruncatedTaylorSeries((0, 1, -1.5))
    # 0.5 - 1.5 * 0.25 = 0.125
    assert series_eval(s, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_eval_complex_point():
    s = TruncatedTaylorSeries((1, 2, 3))
    z = 0.3 + 0.4j
    assert series_eval(s, z) == pytest.approx(1 + 2 * z + 3 * z * z, abs=1e-14)


def test_eval_rejects_points_outside_disk():
    s = TruncatedTaylorSeries((0, 1))
    with pytest.raises(DomainError):
        series_eval(s, 1.5)


def test_derivative_pads_to_degree_one():
    s = TruncatedTaylorSeries((0, 1))
    d = series_derivative(s)
    assert d.coeffs == (1 + 0j, 0j)


def test_derivative_coefficients():
    s = TruncatedTaylorSeries((5, 0, 2, 4))
    assert series_derivative(s).coeffs == (0j, 4 + 0j, 12 + 0j)


def test_series_needs_two_coefficients():
    with pytest.raises(DomainError):
        TruncatedTaylorSeries((1,))


def test_series_rejects_nonfinite():
    with pytest.raises(DomainError):
        TruncatedTaylorSeries((0, float("inf")))


def test_degree_property():
    assert TruncatedTaylorSeries((0, 1, 2, 3)).degree == 3


def test_principal_log_branch():
    assert principal_log(-1.0) == pytest.approx(1j * math.pi, abs=1e-15)
    assert principal_log(complex(-2.0, -0.0)).imag == pytest.approx(math.pi, abs=1e-15)
    assert principal_log(1.0) == 0
    with pytest.raises(DomainError):
        principal_log(0)


_coeffs = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=12,
)


@given(_coeffs, st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
def test_derivative_matches_differencing(coeffs, z):
    s = TruncatedTaylorSeries(tuple(coeffs))
    h = 1e-6
    fd = (series_eval(s, z + h) - series_eval(s, z - h)) / (2 * h)
    exact = series_eval(series_derivative(s), z)
    scale = max(1.0, abs(exact))
    assert abs(fd - exact) < 1e-4 * scale


_disk_points = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=16,
)


@given(_coeffs, _disk_points)
def test_array_eval_matches_scalar_oracle_exactly(coeffs, zs):
    s = TruncatedTaylorSeries(tuple(coeffs))
    assert series_eval_array(s, np.array(zs, dtype=complex)).tolist() == [series_eval(s, z) for z in zs]


def test_array_eval_matches_scalar_oracle_on_long_series():
    s = TruncatedTaylorSeries(deriv_lead_coeffs(1.001, 4096))
    rng = np.random.default_rng(0)
    zs = 0.999 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    assert series_eval_array(s, zs).tolist() == [series_eval(s, complex(z)) for z in zs]


def test_array_eval_rejects_points_outside_disk():
    s = TruncatedTaylorSeries((0, 1))
    with pytest.raises(DomainError):
        series_eval_array(s, np.array([0.5, 1.5j]))


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-7.0, max_value=7.0),
)
def test_log_is_a_right_inverse_of_exp(x, y):
    w = cmath.exp(complex(x, y))
    back = principal_log(w)
    assert back.real == pytest.approx(x, abs=1e-12)
    assert -math.pi < back.imag <= math.pi
    assert cmath.exp(back) == pytest.approx(w, rel=1e-12)
