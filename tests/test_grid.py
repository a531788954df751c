"""Grid, field, quadrature and plane-transform primitive tests."""

import numpy as np
import pytest

from wavetomo.grid import (
    SampledWavefunction,
    UniformGrid1D,
    _frozen_array,
    _Owned,
    trapezoid_weights,
)
from wavetomo.tomography import TomogramPlane
from wavetomo.oracles import _plane_transform


def test_grid_points_and_width():
    g = UniformGrid1D(-2.0, 0.5, 9)
    assert g.end == pytest.approx(2.0)
    assert g.width == pytest.approx(4.0)
    assert np.allclose(g.points, np.linspace(-2.0, 2.0, 9))
    assert g.point(3) == pytest.approx(-0.5)


def test_symmetric_constructor():
    g = UniformGrid1D.symmetric(3.0, 7)
    assert g.start == pytest.approx(-3.0)
    assert g.end == pytest.approx(3.0)
    assert g.count == 7


@pytest.mark.parametrize(
    "start,step,count",
    [(0.0, 0.0, 5), (0.0, -1.0, 5), (0.0, float("nan"), 5), (0.0, 1.0, 1), (float("inf"), 1.0, 5)],
)
def test_grid_rejects_bad_parameters(start, step, count):
    with pytest.raises(ValueError):
        UniformGrid1D(start, step, count)


def test_trapezoid_matches_known_integral():
    g = UniformGrid1D.symmetric(10.0, 4001)
    vals = np.exp(-g.points**2)
    total = trapezoid_weights(g.count, g.step) @ vals
    assert total == pytest.approx(np.sqrt(np.pi), abs=1e-12)
    # the weights are the rule np.trapezoid applies
    assert total == pytest.approx(np.trapezoid(vals, dx=g.step), rel=1e-14)


def test_plane_transform_equals_direct_sum():
    gx = UniformGrid1D.symmetric(4.0, 17)
    gy = UniformGrid1D.symmetric(3.0, 13)
    X, Y = np.meshgrid(gx.points, gy.points, indexing="ij")
    values = np.exp(-(X**2) - 0.5 * Y**2) + 0.0j
    om_x, om_y = 0.73, -0.41
    acc = 0.0 + 0.0j
    for i, x in enumerate(gx.points):
        for j, y in enumerate(gy.points):
            acc += values[i, j] * np.exp(1j * (om_x * x + om_y * y))
    acc *= gx.step * gy.step / (2.0 * np.pi)
    assert _plane_transform(gx, gy, values, om_x, om_y) == pytest.approx(acc, abs=1e-13)


def test_wavefunction_norm_enforced():
    g = UniformGrid1D.symmetric(8.0, 257)
    good = (2.0 / np.pi) ** 0.25 * np.exp(-g.points**2)
    SampledWavefunction(g, good)  # fine
    with pytest.raises(ValueError):
        SampledWavefunction(g, 1.1 * good)


def test_normalized_rescales():
    g = UniformGrid1D.symmetric(8.0, 257)
    psi = SampledWavefunction.normalized(g, np.exp(-g.points**2))
    assert np.trapezoid(np.abs(psi.values) ** 2, dx=g.step) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        SampledWavefunction.normalized(g, np.zeros(g.count))
    # samples that do not fit the grid are refused before any norm is taken
    for bad in (np.ones(g.count - 1), np.ones((g.count, 1)), np.ones(1)):
        with pytest.raises(ValueError, match="does not match grid shape"):
            SampledWavefunction.normalized(g, bad)


def test_handed_over_array_is_frozen_in_place():
    # an array the package allocated for one dataset is kept, read-only, not copied
    a = np.ones((2, 3))
    kept = _frozen_array(_Owned(a), (2, 3), np.float64)
    assert kept is a and not a.flags.writeable


@pytest.mark.parametrize("make", [
    lambda: np.ones((2, 4))[:, :3],  # a view: its base owns the data
    lambda: np.ones((3, 2)).T,  # a transposed view
    lambda: np.ones((2, 3), dtype=np.float32),  # another dtype
    lambda: np.ones((2, 3), dtype=np.int64),
])
def test_handed_over_view_or_other_dtype_is_copied(make):
    a = make()
    owner = a if a.base is None else a.base
    kept = _frozen_array(_Owned(a), (2, 3), np.float64)
    assert kept.dtype == np.float64 and not np.shares_memory(kept, owner)
    assert owner.flags.writeable and not kept.flags.writeable


def test_handed_over_array_is_still_checked():
    with pytest.raises(ValueError, match="does not match grid shape"):
        _frozen_array(_Owned(np.ones(6)), (2, 3), np.float64)
    with pytest.raises(ValueError, match="finite"):
        _frozen_array(_Owned(np.full((2, 3), np.nan)), (2, 3), np.float64)
    g = UniformGrid1D.symmetric(1.0, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        TomogramPlane(0.0, g, g, _Owned(-np.ones((3, 3))))
    with pytest.raises(ValueError, match="squared norm"):
        SampledWavefunction(g, _Owned(np.ones(3, dtype=np.complex128)))
