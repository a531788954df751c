"""Text file format for every dataset the CLI produces or consumes.

Layout: first line is ``#MANIFEST `` followed by one line of JSON carrying
{version, kind, grids, params, provenance}; the rest is whitespace-separated
columns (coordinates first, then values; complex values as a real and an
imaginary column). Floats are written with 17 significant digits, so a
write-then-read round trip is bit exact. 2D kinds insert a blank line
between blocks of constant first coordinate, which makes the files directly
plottable as surfaces by gnuplot's nonuniform-matrix mode.

A coordinate must be the canonical text of its manifest grid point: the
grid point written with "%.17g", as the writer prints it. Any other
spelling of the same number ("1.0" for "1", "5e-1" for "0.5") is refused.
The writer formats each grid point once and only the value columns per
cell, and writes one chunk of whole rows (whole blocks in 2D) of about 1024
values, at most about 60 kB of text, at a time, so its memory does not grow
with the file; the reader streams the data block from the open file into one
structured array, compares the coordinate columns as bytes and parses only
the value columns as floats. It also refuses non-finite values, any NUL byte
in the file and a manifest whose version is missing or not FORMAT_VERSION.

Parse cache: beside each text file it writes, write_file leaves an entry
``.wavetomo-cache/<name>.npy`` in the same directory (the name of an older
.npy layout). The entry is the text's own bytes, then the payload values'
raw C-order bytes, whose dtype and shape the manifest gives: the text's
size plus 8 bytes per real value, 16 per complex. Each encoded chunk goes
to the text and to the entry, so the copy is the writer's own bytes, never
read back from the text. read_file compares each 64 KiB block of its NUL
scan with the entry's next bytes, and reads the values from the entry in
place of the text parse only when every byte of the text equals the copy,
the entry holds exactly the text's size plus the values' bytes, and the
manifest line read is the first line of the compared blocks. Every other
file (goldens, edited or foreign text, stale, damaged or older entries)
is parsed as text, and the payload constructors check a hit as well.
The reader never writes; deleting the cache is always safe; a directory the
writer cannot write to, or an output that is not a regular file, gets no
entry, and the text is written all the same. Entries outlive their text.

One table, ``_KINDS``, says how each payload type is stored, and both the
writer and the reader are driven by it: a row names the kind, its columns
line and its variant; the grid axes and scalar params come from the record.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import ManifestError
from .grid import (DensityMatrix, SampledWavefunction, UniformGrid1D, WignerFunction,
                   _Dataset, _Owned, _Record)
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
_CHUNK = 1024  # values per write_file chunk: a chunk's text is held, not the file's
_SCAN_BYTES = 1 << 16  # bytes per block of read_file's NUL scan and entry comparison
_CACHE = ".wavetomo-cache"  # the parse cache directory beside the text files


def _tag(v: float) -> str:
    """A number as output file names spell it: "%g" with p for "." and m for "-"."""
    return ("%g" % v).replace(".", "p").replace("-", "m")


class WidthMap(_Dataset):
    """Profile 1/e half-width along one parameter line; CLI convenience output."""

    _axes = ("grid",)
    grid: UniformGrid1D
    values: np.ndarray


class _Kind(_Record):
    """How one payload type is stored. variant, when set, is stored as params.variant
    and tells payloads of one kind apart. axes, the payload's _axes, names the grid field
    behind each coordinate column; the manifest lists each distinct grid once, and the
    value columns, (re, im) or one real, follow the coordinates. scalars, the payload
    fields that are neither a grid nor values, are kept in the manifest params."""

    kind: str
    payload: type
    columns: str
    variant: str | None = None

    @property
    def axes(self) -> tuple[str, ...]:
        return self.payload._axes

    @property
    def grids(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.axes))

    @property
    def scalars(self) -> tuple[str, ...]:
        return tuple(f for f in self.payload._fields if f not in self.axes and f != "values")


# reading takes the first row whose kind matches and whose variant is unset
# or equals params.variant, so the optical row precedes the plain plane row
_KINDS = (
    _Kind("wavefunction", SampledWavefunction, "x re im"),
    _Kind("width_map", WidthMap, "nu width"),
    _Kind("tomogram_plane", OpticalTomogram, "X theta w", "optical"),
    _Kind("tomogram_plane", TomogramPlane, "X mu w"),
    _Kind("fresnel_tomogram", FresnelTomogram, "X nu w"),
    _Kind("density_matrix", DensityMatrix, "X Xp re im"),
    _Kind("wigner", WignerFunction, "q p W"),
)


class Manifest(_Record):
    kind: str
    grids: tuple[UniformGrid1D, ...]
    params: dict | None = None  # None: a new empty dict
    provenance: str = ""
    version: str = FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.params is None:
            object.__setattr__(self, "params", {})
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
                UniformGrid1D(float(g["start"]), float(g["step"]), g["count"])
                for g in doc["grids"]
            )
            return Manifest(
                kind=doc["kind"],
                grids=grids,
                params=dict(doc.get("params", {})),
                provenance=str(doc.get("provenance", "")),
                version=str(doc["version"]),  # no default: an unversioned file is refused
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ManifestError(f"manifest fields are invalid: {e}") from None


def _canonical(g: UniformGrid1D) -> list[str]:
    """The "%.17g" text of each point of grid g: how the writer prints it."""
    return ["%.17g" % x for x in g.points.tolist()]


def write_file(path, payload, params=None, provenance="") -> Manifest:
    """Write any dataset payload; returns the manifest written.

    `params` go into the manifest beside the payload's own scalar fields
    (plane nu, density-matrix asymmetry, Wigner imaginary residue). Those
    fields, and `variant`, which the payload's kind alone sets or leaves
    out, replace a caller's copy, so `params` never change a file's kind. The
    text's parse-cache entry, a copy of the bytes written and then the
    payload values, is made in ``.wavetomo-cache/`` beside it as the text is
    written; when that directory cannot be written, or path is not a regular
    file, there is no entry, and the text write still succeeds.
    """
    k = next((r for r in _KINDS if type(payload) is r.payload), None)
    if k is None:
        raise TypeError(f"no file kind stores a {type(payload).__name__}")
    p = {name: v for name, v in (params or {}).items() if name != "variant"}
    p.update({name: float(getattr(payload, name)) for name in k.scalars})
    if k.variant:
        p["variant"] = k.variant
    m = Manifest(k.kind, tuple(getattr(payload, g) for g in k.grids), p, provenance)
    v = payload.values.ravel()
    vals = v.view(np.float64) if np.iscomplexobj(v) else v  # re, im in column order
    *outer, inner = (_canonical(getattr(payload, a)) for a in k.axes)
    cells = " %.17g" * (vals.size // v.size) + "\n"
    # a unit a is a row (1D) or a block of rows each led by a (2D, a blank line
    # between blocks); grid points are formatted once, values once per cell
    units, tails, sep = (outer[0], [" " + c + cells for c in inner], "\n") if outer else (
        inner, [cells], "")
    per = vals.size // len(units)
    step = max(1, _CHUNK // per)
    copy = None
    try:
        with open(path, "wb") as f:
            copy = _EntryCopy(Path(path))

            def put(text: str) -> None:
                data = text.encode("utf-8")
                f.write(data)
                copy.write(data)

            put(f"{m.to_line()}\n# columns: {k.columns}\n")
            for s in range(0, len(units), step):
                text = sep * (s > 0) + sep.join(a + a.join(tails) for a in units[s : s + step])
                put(text % tuple(vals[s * per : (s + step) * per].tolist()))
            copy.write(np.ascontiguousarray(payload.values))
    except BaseException:
        if copy:
            copy.close(keep=False)
        raise
    copy.close()
    return m


def _entry(path: Path) -> Path:
    """The parse-cache entry of the text file at path."""
    return path.parent / _CACHE / (path.name + ".npy")


class _EntryCopy:
    """The entry of the text file at path, made while write_file writes it: what
    write() is given goes to a temporary file, which close() os.replaces into
    place. Only a regular file gets one: not a device, a pipe or a link
    (/dev/null, /dev/stdout). On OSError, or close(keep=False), no entry is
    left, and the text is written all the same."""

    def __init__(self, path: Path) -> None:
        self.entry, self.f = _entry(path), None
        try:
            if stat.S_ISREG(mode := os.lstat(path).st_mode):
                self.entry.parent.mkdir(exist_ok=True)
                fd, self.tmp = tempfile.mkstemp(dir=self.entry.parent,
                                                prefix=self.entry.name, suffix=".tmp")
                self.f = open(fd, "wb")
                os.chmod(self.tmp, stat.S_IMODE(mode))  # the text's readers read it, not 0600
        except OSError:
            self.close(keep=False)

    def write(self, data) -> None:
        try:
            if self.f:
                self.f.write(data)
        except OSError:
            self.close(keep=False)

    def close(self, keep: bool = True) -> None:
        f, self.f = self.f, None
        if not f:
            return
        try:
            f.close()
            if keep:
                os.replace(self.tmp, self.entry)
                return
        except OSError:
            pass
        try:
            os.unlink(self.tmp)
        except OSError:
            pass


def _data_lines(path):
    """(file line number, fields) of every data line, the rows np.loadtxt
    reads: "#" starts a comment, and a line left blank is no row."""
    with open(path, encoding="utf-8") as f:
        next(f, None)  # the manifest line
        for ln, line in enumerate(f, start=2):
            fields = line.split("#", 1)[0].split()
            if fields:
                yield ln, fields


def _line_of(path, row: int) -> int:
    """File line number of the data row with the given index."""
    return next(itertools.islice(_data_lines(path), int(row), None))[0]


def _scan(f, path, entry) -> tuple[bytes, int]:
    """(first line, bytes of entry after its copy of the text) of the text file
    f, open at its start; the count is -1 unless entry (open, or None) begins
    with every byte of the text. Raise naming the line of the first NUL byte,
    if any: the byte comparison of coordinates strips trailing NULs, so a token
    followed by NULs would otherwise pass for its canonical text. One pass over
    blocks of _SCAN_BYTES makes the memchr-speed scan and the memcmp with the
    entry, off the per-line path; the first line is cut from those blocks, so a
    manifest read from it is of the compared bytes. f is left at its start."""
    raw, same = f.buffer, entry is not None
    head, seen = [], 0  # the first line's pieces; the bytes before this block
    while block := raw.read(_SCAN_BYTES):
        at = block.find(b"\0")
        if at >= 0:
            raw.seek(0)
            line = raw.read(seen + at).count(b"\n") + 1
            raise ManifestError(f"{path}:{line}: NUL byte")
        same = same and entry.read(len(block)) == block
        if not (head and head[-1].endswith(b"\n")):  # the first line is still open
            head.append(block[: block.find(b"\n") + 1 or len(block)])
        seen += len(block)
    f.seek(0)
    return b"".join(head), os.fstat(entry.fileno()).st_size - seen if same else -1


def _parse(f, path, n_coords: int, n_values: int) -> np.ndarray:
    """The rest of the open file as one record per data row: coordinate text
    in field "c" (bytes, cut at 25), values in field "v"; malformed lines are
    named. 25 bytes is one more than the longest "%.17g" text of a float64,
    so a cut token never equals a canonical coordinate."""
    dtype = np.dtype([("c", "S25", (n_coords,)), ("v", np.float64, (n_values,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: the count check reports it
            return np.loadtxt(f, dtype=dtype, ndmin=1)
    except ValueError:
        pass
    for ln, fields in _data_lines(path):
        if len(fields) != n_coords + n_values:
            raise ManifestError(
                f"{path}:{ln}: expected {n_coords + n_values} columns, got {len(fields)}"
            )
        try:
            [float(x) for x in fields[n_coords:]]
        except ValueError:
            raise ManifestError(f"{path}:{ln}: non-numeric column") from None
    raise ManifestError(f"{path}: the data block does not parse as numbers")


def read_file(path):
    """Parse any dataset file; returns (manifest, payload).

    The payload type follows the manifest kind (tomogram_plane splits into
    TomogramPlane or OpticalTomogram on params.variant). All structural
    problems, NUL bytes, coordinates that are not the canonical text of
    their manifest grid points and non-finite values raise ManifestError; domain
    validation failures of the payload constructors are wrapped into
    ManifestError as well. When the file's parse-cache entry begins with a
    copy of every byte of the text (the text is as write_file wrote it), holds
    exactly the values' bytes after it, and the manifest line is of the
    compared bytes, the entry's values replace the parse of the data block;
    the manifest is read and checked either way, and the reader never writes.
    """
    path = Path(path)
    try:
        entry = open(_entry(path), "rb")
    except OSError:
        entry = None
    try:
        with open(path, encoding="utf-8") as f:
            head_bytes, left = _scan(f, path, entry)
            head = f.readline()
            if not head:
                raise ManifestError(f"{path} is empty")
            manifest = Manifest.from_line(head.rstrip("\n"))
            if manifest.version != FORMAT_VERSION:
                raise ManifestError(f"{path}: format version {manifest.version!r} is not "
                                    f"{FORMAT_VERSION!r}, the one this reader reads")
            variant = manifest.params.get("variant")
            k = next(r for r in _KINDS
                     if r.kind == manifest.kind and r.variant in (None, variant))
            grids = dict(zip(k.grids, manifest.grids))
            axes = [grids[a] for a in k.axes]
            shape = tuple(g.count for g in axes)
            n_values = len(k.columns.split()) - len(axes)
            values = None
            # the manifest is of the compared bytes, and the values are all the entry holds
            if head.encode("utf-8") == head_bytes and left == math.prod(shape) * 8 * n_values:
                values = np.empty(shape, np.complex128 if n_values == 2 else np.float64)
                values = _Owned(values) if entry.readinto(values) == left else None
            if values is None:
                values = _text_values(f, path, axes, n_values)
    except (OSError, UnicodeDecodeError) as e:
        raise ManifestError(f"cannot read {path}: {e}") from None
    finally:
        if entry:
            entry.close()

    missing = [name for name in k.scalars if name not in manifest.params]
    if missing:
        raise ManifestError(f"{path}: {k.kind} manifest lacks params.{missing[0]}")
    try:
        scalars = {name: float(manifest.params[name]) for name in k.scalars}
        return manifest, k.payload(**grids, values=values, **scalars)
    except (TypeError, ValueError) as e:
        raise ManifestError(f"{path}: payload failed validation: {e}") from None


def _text_values(f, path, axes, n_values: int) -> np.ndarray:
    """The values of the rest of the open file, shaped by the axes' counts
    (complex from two value columns), after checking the row count, the
    coordinate text against the canonical grid points and finiteness."""
    data = _parse(f, path, len(axes), n_values)
    shape = tuple(g.count for g in axes)
    n_rows = math.prod(shape)
    if len(data) < n_rows:
        raise ManifestError(f"{path}: expected {n_rows} data rows, found {len(data)}")
    if len(data) > n_rows:
        raise ManifestError(
            f"{path}:{_line_of(path, n_rows)}: more data rows than the grids allow"
        )
    mismatch = np.zeros(shape, dtype=bool)
    for i, g in enumerate(axes):
        # the grid's canonical text along axis i, broadcast over the others
        canon = np.array(_canonical(g), dtype="S25").reshape(
            [-1 if j == i else 1 for j in range(len(shape))])
        mismatch |= data["c"][:, i].reshape(shape) != canon
    off = np.flatnonzero(mismatch)
    if off.size:
        raise ManifestError(
            f"{path}:{_line_of(path, off[0])}: coordinates do not match the manifest grids"
        )
    values = data["v"]
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ManifestError(f"{path}:{_line_of(path, bad[0])}: non-finite value")
    if n_values == 2:
        values = np.ascontiguousarray(values).view(np.complex128)
    return values.reshape(shape)
