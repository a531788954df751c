"""Text file format for every dataset the CLI produces or consumes.

Layout: first line is ``#MANIFEST `` followed by one line of JSON carrying
{version, kind, grids, params, provenance}; the rest is whitespace-separated
columns (coordinates first, then values; complex values as a real and an
imaginary column). Floats are written with 17 significant digits, so a
write-then-read round trip is bit exact. 2D kinds insert a blank line
between blocks of constant first coordinate, which makes the files directly
plottable as surfaces by gnuplot's nonuniform-matrix mode. Reading checks
the coordinate columns exactly against the manifest grids and refuses
non-finite values.

One table, ``_KINDS``, says how each payload type is stored; the writer and
the reader are both driven by it.
"""
from __future__ import annotations

import io
import itertools
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .grid import SampledWavefunction, UniformGrid1D, _frozen_array
from .reconstruct import DensityMatrix, PsiAutocorrelation, WignerFunction
from .tomography import FresnelTomogram, OpticalTomogram, TomogramPlane

__all__ = [
    "FORMAT_VERSION",
    "Manifest",
    "WidthMap",
    "read_file",
    "write_file",
]

FORMAT_VERSION = "1"

MAGIC = "#MANIFEST "


@dataclass(frozen=True)
class WidthMap:
    """Profile 1/e half-width along one parameter line; CLI convenience output."""

    grid: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _frozen_array(self.values, (self.grid.count,), np.float64)
        )


@dataclass(frozen=True)
class _Kind:
    """How one payload type is stored.

    axes names the payload's grid attribute behind each coordinate column
    (a density matrix uses its one grid twice); the manifest lists each
    distinct grid once. The value columns follow the coordinates: two
    (re, im) for complex payloads, one for real ones. scalars are payload
    fields kept in the manifest params; variant, when set, is stored as
    params.variant and tells payloads of one kind apart.
    """

    kind: str
    payload: type
    axes: tuple[str, ...]
    columns: str
    scalars: tuple[str, ...] = ()
    variant: str | None = None

    @property
    def grids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.axes))


# reading takes the first row whose kind matches and whose variant is unset
# or equals params.variant, so the optical row precedes the plain plane row
_KINDS = (
    _Kind("wavefunction", SampledWavefunction, ("grid",), "x re im"),
    _Kind("autocorrelation", PsiAutocorrelation, ("grid_nu",), "nu re im"),
    _Kind("width_map", WidthMap, ("grid",), "nu width"),
    _Kind("tomogram_plane", OpticalTomogram, ("grid_x", "grid_theta"), "X theta w",
          variant="optical"),
    _Kind("tomogram_plane", TomogramPlane, ("grid_x", "grid_mu"), "X mu w", ("nu",)),
    _Kind("fresnel_tomogram", FresnelTomogram, ("grid_x", "grid_nu"), "X nu w"),
    _Kind("density_matrix", DensityMatrix, ("grid", "grid"), "X Xp re im", ("asymmetry",)),
    _Kind("wigner", WignerFunction, ("grid_q", "grid_p"), "q p W", ("imag_residue",)),
)


@dataclass(frozen=True)
class Manifest:
    kind: str
    grids: tuple[UniformGrid1D, ...]
    params: dict = field(default_factory=dict)
    provenance: str = ""
    version: str = FORMAT_VERSION

    def __post_init__(self) -> None:
        need = {k.kind: len(k.grids) for k in _KINDS}.get(self.kind)
        if need is None:
            raise ManifestError(f"unknown kind {self.kind!r}")
        if len(self.grids) != need:
            raise ManifestError(
                f"kind {self.kind!r} requires {need} grids, got {len(self.grids)}"
            )

    def to_line(self) -> str:
        doc = {
            "version": self.version,
            "kind": self.kind,
            "grids": [
                {"start": g.start, "step": g.step, "count": g.count} for g in self.grids
            ],
            "params": self.params,
            "provenance": self.provenance.replace("\n", " "),
        }
        return MAGIC + json.dumps(doc, separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_line(line: str) -> "Manifest":
        if not line.startswith(MAGIC):
            raise ManifestError("file does not start with a #MANIFEST header line")
        try:
            doc = json.loads(line[len(MAGIC):])
        except json.JSONDecodeError as e:
            raise ManifestError(f"manifest JSON is malformed: {e}") from None
        try:
            grids = tuple(
                UniformGrid1D(float(g["start"]), float(g["step"]), int(g["count"]))
                for g in doc["grids"]
            )
            return Manifest(
                kind=doc["kind"],
                grids=grids,
                params=dict(doc.get("params", {})),
                provenance=str(doc.get("provenance", "")),
                version=str(doc.get("version", FORMAT_VERSION)),
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ManifestError(f"manifest fields are invalid: {e}") from None


def _coordinates(axes) -> list[np.ndarray]:
    """One flat column per axis, row-major over the product grid."""
    return [c.ravel() for c in np.meshgrid(*(g.points for g in axes), indexing="ij")]


def write_file(path, payload, params=None, provenance="") -> Manifest:
    """Write any dataset payload; returns the manifest written.

    `params` go into the manifest beside the payload's own scalar fields
    (plane nu, density-matrix asymmetry, Wigner imaginary residue).
    """
    k = next((r for r in _KINDS if type(payload) is r.payload), None)
    if k is None:
        raise TypeError(f"no file kind stores a {type(payload).__name__}")
    p = dict(params or {})
    p.update({name: float(getattr(payload, name)) for name in k.scalars})
    if k.variant:
        p["variant"] = k.variant
    m = Manifest(k.kind, tuple(getattr(payload, g) for g in k.grids), p, provenance)
    axes = [getattr(payload, a) for a in k.axes]
    v = payload.values.ravel()
    values = [v.real, v.imag] if np.iscomplexobj(v) else [v]
    table = np.column_stack(_coordinates(axes) + values)
    # one format string per block of constant first coordinate (2D), or for
    # the whole file (1D); consecutive blocks are separated by a blank line
    row = " ".join(["%.17g"] * table.shape[1]) + "\n"
    block = axes[-1].count
    text = "\n".join([row * block] * (len(table) // block))
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{m.to_line()}\n# columns: {k.columns}\n")
        f.write(text % tuple(table.ravel().tolist()))
    return m


def _data_lines(body: str):
    """(file line number, fields) of every data line: not blank, not a comment."""
    for ln, line in enumerate(body.splitlines(), start=2):
        s = line.strip()
        if s and not s.startswith("#"):
            yield ln, s.split()


def _line_of(body: str, row: int) -> int:
    """File line number of the data row with the given index."""
    return next(itertools.islice(_data_lines(body), int(row), None))[0]


def _parse(path, body: str, n_cols: int) -> np.ndarray:
    """All data rows as one (rows, n_cols) array; malformed lines are named."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: the count check reports it
            data = np.loadtxt(io.StringIO(body), ndmin=2)
        if len(data) == 0 or data.shape[1] == n_cols:
            return data
    except ValueError:
        pass
    for ln, fields in _data_lines(body):
        if len(fields) != n_cols:
            raise ManifestError(f"{path}:{ln}: expected {n_cols} columns, got {len(fields)}")
        try:
            [float(f) for f in fields]
        except ValueError:
            raise ManifestError(f"{path}:{ln}: non-numeric column") from None
    raise ManifestError(f"{path}: the data block does not parse as numbers")


def read_file(path):
    """Parse any dataset file; returns (manifest, payload).

    The payload type follows the manifest kind (tomogram_plane splits into
    TomogramPlane or OpticalTomogram on params.variant). All structural
    problems, coordinates off the manifest grids and non-finite values raise
    ManifestError; domain validation failures of the payload constructors
    are wrapped into ManifestError as well.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ManifestError(f"cannot read {path}: {e}") from None
    if not text:
        raise ManifestError(f"{path} is empty")
    head, _, body = text.partition("\n")
    manifest = Manifest.from_line(head)
    variant = manifest.params.get("variant")
    k = next(r for r in _KINDS if r.kind == manifest.kind and r.variant in (None, variant))
    grids = dict(zip(k.grids, manifest.grids))
    axes = [grids[a] for a in k.axes]
    shape = tuple(g.count for g in axes)
    data = _parse(path, body, len(k.columns.split()))

    n_rows = int(np.prod(shape))
    if len(data) < n_rows:
        raise ManifestError(f"{path}: expected {n_rows} data rows, found {len(data)}")
    if len(data) > n_rows:
        raise ManifestError(
            f"{path}:{_line_of(body, n_rows)}: more data rows than the grids allow"
        )
    coords, values = data[:, : len(axes)], data[:, len(axes):]
    off = np.flatnonzero((coords != np.column_stack(_coordinates(axes))).any(axis=1))
    if off.size:
        raise ManifestError(
            f"{path}:{_line_of(body, off[0])}: coordinates do not match the manifest grids"
        )
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ManifestError(f"{path}:{_line_of(body, bad[0])}: non-finite value")
    if values.shape[1] == 2:
        values = np.ascontiguousarray(values).view(np.complex128)

    missing = [name for name in k.scalars if name not in manifest.params]
    if missing:
        raise ManifestError(f"{path}: {k.kind} manifest lacks params.{missing[0]}")
    try:
        scalars = {name: float(manifest.params[name]) for name in k.scalars}
        return manifest, k.payload(**grids, values=values.reshape(shape), **scalars)
    except (TypeError, ValueError) as e:
        raise ManifestError(f"{path}: payload failed validation: {e}") from None
