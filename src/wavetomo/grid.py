"""Uniform grids, sampled wavefunctions, trapezoid weights and the datasets
the inversions return (density matrices and Wigner functions), which live
here so that reading a file never loads the inversion code.

Every record type derives from `_Record`, an immutable record with the
fields, defaults, ``__post_init__``, equality, hashing and repr of a frozen
dataclass, built without the ``exec`` calls that `dataclasses` makes at
import. Every dataset type stores a read-only copy of its samples through
`_frozen_array`, or the array itself when the package hands over one it has
just built for that dataset (`_Owned`); an integral of uniform samples is
`np.trapezoid(values, dx=step)`. Conventions used throughout the package:

* grids are uniform, ascending, described by (start, step, count);
* 2D values are row-major, ``values[i, j]`` belonging to
  ``(grid_x.point(i), grid_y.point(j))``.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "UniformGrid1D",
    "SampledWavefunction",
    "DensityMatrix",
    "DensityMatrixNd",
    "WignerFunction",
]

NORM_TOL = 1e-6
HERMITICITY_TOL = 1e-8


class _Record:
    """Immutable record: the part of a frozen dataclass the package uses.

    A subclass's annotations name its fields, in order; a class attribute of
    a field's name is its default. The constructor takes the fields by
    position or keyword, then runs __post_init__, which may replace a field
    through object.__setattr__. Assigning or deleting an attribute raises
    AttributeError, and equality, hashing and repr go by the fields' values,
    as a frozen dataclass's do.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # the class's own, never a base's
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        name, fields, d = type(self).__name__, self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        d.update(zip(fields, args))
        for f, value in kwargs.items():
            if f not in fields or f in d:
                raise TypeError(f"{name}() got an unexpected or repeated argument {f!r}")
            d[f] = value
        for f in fields:
            if f not in d:
                if f not in self._defaults:
                    raise TypeError(f"{name}() missing required argument {f!r}")
                d[f] = self._defaults[f]
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"


class UniformGrid1D(_Record):
    """Uniform 1D grid; point(k) = start + k*step for k in range(count)."""

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        if not isinstance(self.count, numbers.Integral):
            raise ValueError(f"grid count must be an integer, got {self.count!r}")
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


class _Owned:
    """An array the package has just allocated for one dataset and no longer
    uses: _frozen_array may keep it instead of a copy."""

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _frozen_array(values, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Private read-only copy of finite `values` with the given shape and dtype.

    Every dataset type stores its samples through this, so a constructed
    dataset can neither hold NaN/inf nor be changed through a caller's array.
    An _Owned array that owns its data (base None) and has the dtype is
    frozen in place; any other is copied, a view or another dtype included.
    """
    owned = isinstance(values, _Owned)
    arr = values.array if owned else values
    if not (owned and arr.base is None and arr.dtype == dtype):
        arr = np.array(arr, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    arr.flags.writeable = False
    return arr


class SampledWavefunction(_Record):
    """Complex wavefunction samples on a uniform grid, unit L2 norm.

    The squared norm (trapezoid rule) must sit within 1e-6 of 1; use
    :meth:`normalized` to rescale arbitrary samples first.
    """

    grid: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen_array(self.values, (self.grid.count,), np.complex128)
        norm2 = float(np.trapezoid(np.abs(vals) ** 2, dx=self.grid.step))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"wavefunction squared norm {norm2!r} deviates from 1 by more than {NORM_TOL}"
            )
        object.__setattr__(self, "values", vals)

    @staticmethod
    def normalized(grid: UniformGrid1D, values) -> "SampledWavefunction":
        vals = _frozen_array(values, (grid.count,), np.complex128)
        norm2 = float(np.trapezoid(np.abs(vals) ** 2, dx=grid.step))
        if norm2 <= 0.0:
            raise ValueError("cannot normalize identically-zero samples")
        return SampledWavefunction(grid, _Owned(vals / np.sqrt(norm2)))


def trapezoid_weights(n: int, step: float) -> np.ndarray:
    """Composite trapezoid weights for n uniform samples: `step`, halved at both ends."""
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _check_hermitian(mat: np.ndarray) -> None:
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"hermiticity defect {defect} exceeds {HERMITICITY_TOL}")


def _hermitian_part(raw, n: int) -> tuple[np.ndarray, float]:
    """(raw + raw^H)/2 in raw's shape, raw read as n x n, and the asymmetry it removed."""
    mat = np.asarray(raw, dtype=np.complex128).reshape(n, n)
    adj = mat.conj().T
    return (0.5 * (mat + adj)).reshape(np.shape(raw)), float(np.max(np.abs(mat - adj)))


class DensityMatrix(_Record):
    """Position-representation density matrix on a uniform grid.

    Constructed values must already be Hermitian to 1e-8; use ``from_raw``
    to symmetrize quadrature output and keep the pre-symmetrization
    asymmetry as a diagnostic.
    """

    grid: UniformGrid1D
    values: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self) -> None:
        n = self.grid.count
        vals = _frozen_array(self.values, (n, n), np.complex128)
        _check_hermitian(vals)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_raw(grid: UniformGrid1D, raw) -> "DensityMatrix":
        return DensityMatrix(grid, *_hermitian_part(raw, grid.count))

    @property
    def trace_times_step(self) -> float:
        return float(np.real(np.trace(self.values)) * self.grid.step)


class DensityMatrixNd(_Record):
    """N-axis density matrix; values[i1..iN, j1..jN] with one index pair per axis."""

    grids: tuple[UniformGrid1D, ...]
    values: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self) -> None:
        shape = tuple(g.count for g in self.grids) * 2
        object.__setattr__(self, "values", _frozen_array(self.values, shape, np.complex128))
        _check_hermitian(self.values.reshape(math.prod(g.count for g in self.grids), -1))

    @staticmethod
    def from_raw(grids, raw) -> "DensityMatrixNd":
        grids = tuple(grids)
        return DensityMatrixNd(grids, *_hermitian_part(raw, math.prod(g.count for g in grids)))


class WignerFunction(_Record):
    grid_q: UniformGrid1D
    grid_p: UniformGrid1D
    values: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self) -> None:
        shape = (self.grid_q.count, self.grid_p.count)
        object.__setattr__(self, "values", _frozen_array(self.values, shape, np.float64))

    def normalization(self) -> float:
        return float(np.trapezoid(self.marginal_q(), dx=self.grid_q.step))

    def marginal_q(self) -> np.ndarray:
        return np.trapezoid(self.values, dx=self.grid_p.step, axis=1)
