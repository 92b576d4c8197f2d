"""Series evaluation and differentiation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polylandau import (
    DomainError,
    TruncatedTaylorSeries,
    series_derivative,
    series_eval,
)
import _oracles as reference
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


def test_derivative_series_is_built_once(monkeypatch):
    import polylandau.series as series_module

    built = []
    monkeypatch.setattr(series_module, "series_derivative", lambda s: built.append(s) or series_derivative(s))
    s = TruncatedTaylorSeries((5, 0.25 - 1j, 2, 4))
    zs = np.array([0.1, 0.5j, -0.3 + 0.2j])
    point, array = s.derivative(0.5 + 0.25j), s.derivative(zs)
    assert s.derivative(0.5 + 0.25j) == point
    assert len(built) == 1
    assert s == TruncatedTaylorSeries((5, 0.25 - 1j, 2, 4))  # the kept series is no field
    exact = series_derivative(s)
    assert point == series_eval(exact, 0.5 + 0.25j)
    assert np.array_equal(array, series_eval(exact, zs))


def test_series_needs_two_coefficients():
    with pytest.raises(DomainError):
        TruncatedTaylorSeries((1,))


def test_series_rejects_nonfinite():
    with pytest.raises(DomainError):
        TruncatedTaylorSeries((0, float("inf")))


def test_degree_property():
    assert TruncatedTaylorSeries((0, 1, 2, 3)).degree == 3


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
def test_array_eval_matches_the_point_reference_exactly(coeffs, zs):
    s = TruncatedTaylorSeries(tuple(coeffs))
    assert series_eval(s, np.array(zs, dtype=complex)).tolist() == [reference.series_eval(s, z) for z in zs]


def test_array_eval_matches_the_point_reference_on_long_series():
    s = TruncatedTaylorSeries(deriv_lead_coeffs(1.001, 4096))
    rng = np.random.default_rng(0)
    zs = 0.999 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * np.pi * rng.uniform(size=64))
    assert series_eval(s, zs).tolist() == [reference.series_eval(s, complex(z)) for z in zs]


@given(_coeffs, _disk_points)
def test_a_point_gives_a_python_complex_equal_to_the_array_entry(coeffs, zs):
    s = TruncatedTaylorSeries(tuple(coeffs))
    for z, want in zip(zs, series_eval(s, np.array(zs, dtype=complex)).tolist()):
        for point in (z, z.real) if z.imag == 0.0 else (z,):
            got = series_eval(s, point)
            assert type(got) is complex
            assert got == want


def test_array_eval_rejects_points_outside_disk():
    s = TruncatedTaylorSeries((0, 1))
    with pytest.raises(DomainError):
        series_eval(s, np.array([0.5, 1.5j]))
