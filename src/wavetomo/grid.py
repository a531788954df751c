"""Uniform grids, sampled fields and the trapezoid rule.

Conventions used throughout the package:

* grids are uniform, ascending, described by (start, step, count);
* 2D values are row-major, ``values[i, j]`` belonging to
  ``(grid_x.point(i), grid_y.point(j))``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformGrid1D",
    "SampledWavefunction",
    "trapezoid_integrate",
]

NORM_TOL = 1e-6


@dataclass(frozen=True)
class UniformGrid1D:
    """Uniform 1D grid; point(k) = start + k*step for k in range(count)."""

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not np.isfinite(self.start):
            raise ValueError(f"grid start must be finite, got {self.start}")

    def point(self, k: int) -> float:
        return self.start + k * self.step

    @property
    def end(self) -> float:
        return self.start + (self.count - 1) * self.step

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def width(self) -> float:
        return (self.count - 1) * self.step

    @staticmethod
    def symmetric(half_width: float, count: int) -> "UniformGrid1D":
        """Grid spanning [-half_width, half_width] with `count` points."""
        if count < 2:
            raise ValueError(f"grid needs at least 2 points, got {count}")
        step = 2.0 * half_width / (count - 1)
        return UniformGrid1D(-half_width, step, count)


def _frozen_array(values, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Private read-only copy of finite `values` with the given shape and dtype.

    Every dataset type stores its samples through this, so a constructed
    dataset can neither hold NaN/inf nor be changed through a caller's array.
    """
    arr = np.array(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    arr.flags.writeable = False
    return arr


class SampledWavefunction:
    """Complex wavefunction samples on a uniform grid, unit L2 norm.

    The squared norm (trapezoid rule) must sit within 1e-6 of 1; use
    :meth:`normalized` to rescale arbitrary samples first.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: UniformGrid1D, values) -> None:
        vals = _frozen_array(values, (grid.count,), np.complex128)
        norm2 = float(trapezoid_integrate(np.abs(vals) ** 2, grid.step).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"wavefunction squared norm {norm2!r} deviates from 1 by more than {NORM_TOL}"
            )
        self.grid = grid
        self.values = vals

    @staticmethod
    def normalized(grid: UniformGrid1D, values) -> "SampledWavefunction":
        vals = np.asarray(values, dtype=np.complex128)
        norm2 = float(trapezoid_integrate(np.abs(vals) ** 2, grid.step).real)
        if norm2 <= 0.0:
            raise ValueError("cannot normalize identically-zero samples")
        return SampledWavefunction(grid, vals / np.sqrt(norm2))

    def norm_squared(self) -> float:
        return float(trapezoid_integrate(np.abs(self.values) ** 2, self.grid.step).real)

    def interp_at(self, x) -> np.ndarray:
        """Linear interpolation of the complex samples; zero outside the grid."""
        x = np.asarray(x, dtype=np.float64)
        pts = self.grid.points
        re = np.interp(x, pts, self.values.real, left=0.0, right=0.0)
        im = np.interp(x, pts, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def abs2_at(self, x) -> np.ndarray:
        """Linear interpolation of |psi|^2; zero outside the grid."""
        x = np.asarray(x, dtype=np.float64)
        return np.interp(x, self.grid.points, np.abs(self.values) ** 2, left=0.0, right=0.0)


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Composite trapezoid weights for n uniform samples: `step`, halved at both ends."""
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def trapezoid_integrate(values, step: float):
    """Composite trapezoid integral of uniformly sampled values.

    Parameters
    ----------
    values : array_like
        At least two samples; real or complex.
    step : float
        Positive grid spacing.

    Returns
    -------
    float or complex
    """
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ValueError("trapezoid_integrate needs a 1D array of at least 2 samples")
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    return np.trapezoid(arr, dx=step)
