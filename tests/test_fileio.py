"""Dataset file format: manifests, round trips, parse failures, parse cache.

Every kind must survive write-then-read bit exactly; 17-significant-digit
decimal serialization guarantees that for 64-bit floats. A read through the
parse cache must give the same payload as the text parse.
"""
import hashlib
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavetomo.analytic import (
    GcfParams,
    gcf_plane_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_width,
)
from wavetomo import fileio
from wavetomo.errors import ManifestError
from wavetomo.fileio import _CHUNK, _KINDS, Manifest, WidthMap, read_file, write_file
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.oracles import golden_dir
from wavetomo.reconstruct import DensityMatrix, WignerFunction
from wavetomo.tomography import (
    FresnelTomogram,
    OpticalTomogram,
    TomogramPlane,
    fresnel_tomogram,
)

P = GcfParams(1.0, 1.0)


def _grids_equal(a: UniformGrid1D, b: UniformGrid1D) -> bool:
    return (a.start, a.step, a.count) == (b.start, b.step, b.count)


def test_wavefunction_round_trip(tmp_path):
    psi = gcf_sampled(P, UniformGrid1D.symmetric(5.0, 65))
    path = tmp_path / "psi.txt"
    m = write_file(path, psi, params={"sigma": 1.0}, provenance="unit test")
    m2, payload = read_file(path)
    assert m2.kind == "wavefunction" and m2.params["sigma"] == 1.0
    assert m2.provenance == "unit test"
    assert _grids_equal(payload.grid, psi.grid)
    assert np.array_equal(payload.values, psi.values)
    assert m.to_line() == m2.to_line()


def test_width_map_round_trip(tmp_path):
    g = UniformGrid1D.symmetric(2.0, 21)
    wm = WidthMap(g, np.array([gcf_width(P, 1.0, nu) for nu in g.points]))
    path = tmp_path / "wm.txt"
    write_file(path, wm)
    _, payload = read_file(path)
    assert isinstance(payload, WidthMap)
    assert np.array_equal(payload.values, wm.values)


def test_plane_round_trip_and_blocking(tmp_path):
    gx = UniformGrid1D.symmetric(4.0, 9)
    gmu = UniformGrid1D.symmetric(2.0, 7)
    plane = gcf_plane_analytic(P, gx, gmu, 0.7)
    path = tmp_path / "plane.txt"
    write_file(path, plane, provenance="tomogram --nu 0.7")
    m, payload = read_file(path)
    assert isinstance(payload, TomogramPlane)
    assert payload.nu == 0.7
    assert np.array_equal(payload.values, plane.values)
    # gnuplot blocked layout: one blank separator between consecutive X blocks
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if not ln.strip()) == gx.count - 1


def test_optical_round_trip(tmp_path):
    gx = UniformGrid1D.symmetric(3.0, 5)
    gth = UniformGrid1D(-1.2, 0.4, 7)
    vals = np.abs(np.random.default_rng(5).normal(size=(5, 7)))
    opt = OpticalTomogram(gx, gth, vals)
    path = tmp_path / "opt.txt"
    write_file(path, opt)
    m, payload = read_file(path)
    assert isinstance(payload, OpticalTomogram)
    assert m.params["variant"] == "optical"
    assert np.array_equal(payload.values, vals)


def test_params_never_change_a_files_kind(tmp_path):
    # the payload's kind alone sets params.variant, as the payload alone sets its
    # scalars: a caller's variant is replaced, or dropped where the kind has none
    plane = gcf_plane_analytic(P, UniformGrid1D.symmetric(4.0, 9),
                               UniformGrid1D.symmetric(2.0, 7), 0.7)
    opt = OpticalTomogram(plane.grid_x, UniformGrid1D(-1.2, 0.4, 7), plane.values)
    psi = SampledWavefunction(UniformGrid1D.symmetric(2.0, 5), np.full(5, 0.5 + 0j))
    path = tmp_path / "f.txt"
    for payload, params, want in (
            (plane, {"variant": "optical", "nu": 3.0, "sigma": 1.0}, {"nu": 0.7, "sigma": 1.0}),
            (opt, {"variant": "plain"}, {"variant": "optical"}),
            (psi, {"variant": "optical"}, {})):
        m = write_file(path, payload, params)
        m_back, back = read_file(path)
        assert m.params == want and m_back == m
        assert type(back) is type(payload) and np.array_equal(back.values, payload.values)


def test_fresnel_round_trip(tmp_path):
    gx = UniformGrid1D.symmetric(4.0, 11)
    gnu = UniformGrid1D.symmetric(2.0, 9)
    X, NU = np.meshgrid(gx.points, gnu.points, indexing="ij")
    wf = FresnelTomogram(gx, gnu, np.exp(-(X**2) / (1.0 + NU**2)))
    path = tmp_path / "fres.txt"
    write_file(path, wf)
    _, payload = read_file(path)
    assert isinstance(payload, FresnelTomogram)
    assert np.array_equal(payload.values, wf.values)


def test_density_matrix_round_trip(tmp_path):
    g = UniformGrid1D.symmetric(2.0, 17)
    psi = gcf_psi(P, g.points)
    dm = DensityMatrix(g, np.outer(psi, psi.conj()), asymmetry=3.5e-9)
    path = tmp_path / "rho.txt"
    write_file(path, dm)
    m, payload = read_file(path)
    assert isinstance(payload, DensityMatrix)
    assert payload.asymmetry == 3.5e-9
    assert np.array_equal(payload.values, dm.values)


def test_wigner_round_trip(tmp_path):
    gq = UniformGrid1D.symmetric(2.0, 9)
    gp = UniformGrid1D.symmetric(3.0, 11)
    Q, Pm = np.meshgrid(gq.points, gp.points, indexing="ij")
    w = WignerFunction(gq, gp, np.exp(-(Q**2) - Pm**2) / math.pi, imag_residue=2e-12)
    path = tmp_path / "wig.txt"
    write_file(path, w)
    _, payload = read_file(path)
    assert isinstance(payload, WignerFunction)
    assert payload.imag_residue == 2e-12
    assert np.array_equal(payload.values, w.values)


# finite float64 draws, with negative zero and subnormals forced into the mix
FINITE = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 1e-310]),
)


def _draw_grid(data) -> UniformGrid1D:
    return UniformGrid1D(
        data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(1e-3, 10.0)),
        data.draw(st.integers(2, 4)),
    )


def _draw_values(data, shape, nonnegative=False) -> np.ndarray:
    n = int(np.prod(shape))
    v = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n))).reshape(shape)
    return np.where(v < 0, -v, v) if nonnegative else v  # keeps -0.0


def _draw_complex(data, shape) -> np.ndarray:
    z = np.empty(shape, dtype=np.complex128)  # set parts apart: re + 1j*im loses -0.0
    z.real = _draw_values(data, shape)
    z.imag = _draw_values(data, shape)
    return z


def _draw_wavefunction(data):
    g = _draw_grid(data)
    z = _draw_complex(data, (g.count,))
    if not np.any(np.abs(z) > 1e-100):
        z[0] = 1.0  # normalizable
    return SampledWavefunction.normalized(g, z)


def _draw_pair(data, make, nonnegative=True):
    ga, gb = _draw_grid(data), _draw_grid(data)
    return make(ga, gb, _draw_values(data, (ga.count, gb.count), nonnegative))


def _draw_density_matrix(data):
    g = _draw_grid(data)
    return DensityMatrix.from_raw(g, _draw_complex(data, (g.count, g.count)))


ABS = st.floats(0.0, 1e6)
DRAW_PAYLOAD = {
    SampledWavefunction: _draw_wavefunction,
    WidthMap: lambda d: WidthMap(g := _draw_grid(d), _draw_values(d, (g.count,))),
    OpticalTomogram: lambda d: _draw_pair(d, OpticalTomogram),
    TomogramPlane: lambda d: _draw_pair(
        d, lambda a, b, v: TomogramPlane(d.draw(FINITE), a, b, v)),
    FresnelTomogram: lambda d: _draw_pair(d, FresnelTomogram),
    DensityMatrix: _draw_density_matrix,
    WignerFunction: lambda d: _draw_pair(
        d, lambda a, b, v: WignerFunction(a, b, v, d.draw(ABS)), nonnegative=False),
}


def test_every_kind_has_a_payload_strategy():
    assert {k.payload for k in _KINDS} == set(DRAW_PAYLOAD)


_G3 = UniformGrid1D.symmetric(1.0, 3)
# each payload type from a caller's values array of the dtype it stores
FROM_CALLER = {
    SampledWavefunction: (lambda v: SampledWavefunction(_G3, v), np.full(3, 0.5**0.5, complex)),
    WidthMap: (lambda v: WidthMap(_G3, v), np.ones(3)),
    OpticalTomogram: (lambda v: OpticalTomogram(_G3, _G3, v), np.ones((3, 3))),
    TomogramPlane: (lambda v: TomogramPlane(0.5, _G3, _G3, v), np.ones((3, 3))),
    FresnelTomogram: (lambda v: FresnelTomogram(_G3, _G3, v), np.ones((3, 3))),
    DensityMatrix: (lambda v: DensityMatrix(_G3, v), np.eye(3, dtype=complex)),
    WignerFunction: (lambda v: WignerFunction(_G3, _G3, v), -np.ones((3, 3))),
}


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.payload.__name__)
def test_payload_copies_the_callers_array(kind):
    # a caller's array is never frozen or kept: it stays writeable, and a later
    # write to it does not show in the payload
    make, values = FROM_CALLER[kind.payload]
    payload = make(values)
    kept = payload.values.copy()
    assert values.flags.writeable and not payload.values.flags.writeable
    values[...] = 7.0
    assert payload.values.tobytes() == kept.tobytes()


_GA, _GB = UniformGrid1D(0.0, 1.0, 3), UniformGrid1D(10.0, 0.5, 4)
# each payload type on two grids that tell its axes apart, and its scalar fields
DISTINCT = {
    SampledWavefunction: (SampledWavefunction.normalized(_GA, np.ones(3)), set()),
    WidthMap: (WidthMap(_GA, np.ones(3)), set()),
    OpticalTomogram: (OpticalTomogram(_GA, _GB, np.ones((3, 4))), set()),
    TomogramPlane: (TomogramPlane(0.5, _GA, _GB, np.ones((3, 4))), {"nu"}),
    FresnelTomogram: (FresnelTomogram(_GA, _GB, np.ones((3, 4))), set()),
    DensityMatrix: (DensityMatrix(_GA, np.eye(3), 1e-9), {"asymmetry"}),
    WignerFunction: (WignerFunction(_GA, _GB, np.ones((3, 4)), 2e-3), {"imag_residue"}),
}


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.payload.__name__)
def test_manifest_holds_the_payloads_scalars_and_columns_follow_its_axes(kind, tmp_path):
    payload, scalars = DISTINCT[kind.payload]
    m = write_file(tmp_path / "k.txt", payload)
    assert set(kind.scalars) == scalars
    assert set(m.params) == scalars | ({"variant"} if kind.variant else set())
    axes = [getattr(payload, a) for a in kind.axes]
    assert m.grids == tuple(dict.fromkeys(axes))
    coords = np.loadtxt(tmp_path / "k.txt", ndmin=2)[:, : len(axes)]
    mesh = np.meshgrid(*(g.points for g in axes), indexing="ij")
    assert all(np.array_equal(coords[:, i], c.ravel()) for i, c in enumerate(mesh))


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.payload.__name__)
@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_round_trip_property(kind, data, tmp_path):
    # write -> read is bit exact through the parse cache and through the text
    # parse alike; write -> read -> write is byte identical
    payload = DRAW_PAYLOAD[kind.payload](data)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    write_file(first, payload, {"tag": "prop"}, "property test")
    m, back = read_file(first)
    fileio._entry(first).unlink()
    m_text, parsed = read_file(first)
    assert m_text == m
    for read in (back, parsed):
        assert type(read) is type(payload)
        assert read.values.dtype == payload.values.dtype
        assert read.values.shape == payload.values.shape
        assert read.values.tobytes() == payload.values.tobytes()
    for name in kind.scalars:
        assert getattr(back, name) == getattr(parsed, name) == getattr(payload, name)
    write_file(second, back, m.params, m.provenance)
    assert second.read_bytes() == first.read_bytes()


def _old_rendering(payload, kind) -> str:
    """The data block as one "%.17g" per cell, row by row, with a blank line
    between blocks of constant first coordinate (2D kinds)."""
    axes = [getattr(payload, a) for a in kind.axes]
    cols = [c.ravel() for c in np.meshgrid(*(g.points for g in axes), indexing="ij")]
    v = payload.values.ravel()
    cols += [v.real, v.imag] if np.iscomplexobj(v) else [v]
    lines = []
    for i, row in enumerate(zip(*cols)):
        if len(axes) == 2 and i and i % axes[1].count == 0:
            lines.append("")
        lines.append(" ".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.payload.__name__)
@settings(derandomize=True, database=None, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_writer_matches_per_cell_formatting(kind, data, tmp_path):
    # 1D, 2D, complex and repeated-grid (density matrix) kinds alike
    payload = DRAW_PAYLOAD[kind.payload](data)
    path = tmp_path / "w.txt"
    write_file(path, payload)
    header, columns, body = path.read_text(encoding="utf-8").split("\n", 2)
    assert columns == f"# columns: {kind.columns}"
    assert body == _old_rendering(payload, kind)


def _seam_payload(name):
    # values of many magnitudes, so rows differ in length
    rng = np.random.default_rng(11)
    z = lambda *s: rng.normal(size=s) * 10.0 ** rng.integers(-100, 100, size=s)
    if name == "wavefunction":
        g = UniformGrid1D(-7.3, 0.0013, 10001)
        return SampledWavefunction.normalized(g, z(g.count) + 1j * z(g.count))
    if name == "plane":
        ga, gb = UniformGrid1D.symmetric(8.0, 401), UniformGrid1D(-1.1, 0.37, 47)
        return TomogramPlane(0.3, ga, gb, np.abs(z(ga.count, gb.count)))
    g = UniformGrid1D.symmetric(3.0, 150)
    return DensityMatrix.from_raw(g, z(g.count, g.count) + 1j * z(g.count, g.count))


@pytest.mark.parametrize("name", ["wavefunction", "plane", "density_matrix"])
def test_writer_chunk_seams_match_per_cell_formatting(name, tmp_path):
    payload = _seam_payload(name)
    kind = next(k for k in _KINDS if type(payload) is k.payload)
    units = getattr(payload, kind.axes[0]).count
    per = payload.values.view(np.float64).size // units  # values per row (1D) or block (2D)
    assert -(-units // max(1, _CHUNK // per)) >= 3  # the file spans three chunks or more
    path = tmp_path / "w.txt"
    write_file(path, payload)
    body = path.read_text(encoding="utf-8").split("\n", 2)[2]
    assert body == _old_rendering(payload, kind)


def test_write_peak_memory_is_below_half_the_file_size(tmp_path):
    # cli-forward's Fresnel map, 481 X by 161 nu: a 4.3 MB file
    psi = gcf_sampled(GcfParams(1.0, 2.0), count=1025)
    wf = fresnel_tomogram(psi, UniformGrid1D.symmetric(8.0, 481), UniformGrid1D.symmetric(2.0, 161))
    path = tmp_path / "fresnel.txt"
    tracemalloc.start()
    try:
        write_file(path, wf, {"sigma": 1.0, "alpha": 2.0}, "tomogram --kind fresnel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_write_peak_memory_is_one_chunk_of_text(tmp_path):
    # the same map: above the map itself, the writer holds one chunk of 1024 values (about
    # 55 kB of text) in its template, values, str and bytes, not a share of the file
    psi = gcf_sampled(GcfParams(1.0, 2.0), count=1025)
    wf = fresnel_tomogram(psi, UniformGrid1D.symmetric(8.0, 481), UniformGrid1D.symmetric(2.0, 161))
    tracemalloc.start()
    try:
        write_file(tmp_path / "fresnel.txt", wf, {"sigma": 1.0, "alpha": 2.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_golden_files_rewrite_byte_for_byte(tmp_path):
    paths = sorted(golden_dir().glob("golden_*.txt"))
    assert len(paths) == 10
    for path in paths:
        m, payload = read_file(path)
        write_file(tmp_path / path.name, payload, m.params, m.provenance)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


# ---------------------------------------------------------------------------
# manifest line


def test_manifest_line_round_trip():
    g = UniformGrid1D(-1.5, 0.125, 25)
    m = Manifest("fresnel_tomogram", (g, g), {"sigma": 0.5, "alpha": 3.0}, "gcf run")
    m2 = Manifest.from_line(m.to_line())
    assert m2 == m


def test_manifest_provenance_newlines_flattened():
    g = UniformGrid1D(0.0, 1.0, 2)
    m = Manifest("wavefunction", (g,), {}, "line one\nline two")
    assert "\n" not in m.to_line()
    assert Manifest.from_line(m.to_line()).provenance == "line one line two"


def test_manifest_rejects_unknown_kind():
    g = UniformGrid1D(0.0, 1.0, 2)
    with pytest.raises(ManifestError):
        Manifest("hologram", (g,))


def test_manifest_rejects_wrong_grid_count():
    g = UniformGrid1D(0.0, 1.0, 2)
    with pytest.raises(ManifestError):
        Manifest("wigner", (g,))
    with pytest.raises(ManifestError):
        Manifest("wavefunction", (g, g))


def test_manifest_rejects_bad_magic_and_json():
    with pytest.raises(ManifestError):
        Manifest.from_line("MANIFEST {}")
    with pytest.raises(ManifestError):
        Manifest.from_line("#MANIFEST {not json")
    with pytest.raises(ManifestError):
        Manifest.from_line('#MANIFEST {"version":"1","kind":"wavefunction"}')


def test_write_refuses_a_payload_no_kind_stores(tmp_path):
    with pytest.raises(TypeError, match="no file kind stores a object"):
        write_file(tmp_path / "o.txt", object())
    assert list(tmp_path.iterdir()) == []


def test_manifest_refuses_a_fractional_count():
    # int() would read 5.9 as 5 and the file's rows against a grid it never had
    line = Manifest("wavefunction", (UniformGrid1D(0.0, 1.0, 5),)).to_line()
    assert '"count":5,' in line
    with pytest.raises(ManifestError, match="grid count must be an integer, got 5.9"):
        Manifest.from_line(line.replace('"count":5,', '"count":5.9,'))


# ---------------------------------------------------------------------------
# parse failures


def _psi_file(tmp_path):
    psi = gcf_sampled(P, UniformGrid1D.symmetric(5.0, 33))
    path = tmp_path / "psi.txt"
    write_file(path, psi)
    return path


def test_read_missing_and_empty(tmp_path):
    with pytest.raises(ManifestError):
        read_file(tmp_path / "nope.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ManifestError):
        read_file(empty)


def test_read_not_utf8(tmp_path):
    path = _psi_file(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 5))
    with pytest.raises(ManifestError, match="cannot read"):
        read_file(path)


def test_read_wrong_column_count(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5] + " 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="columns"):
        read_file(path)


def test_read_non_numeric_value(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[7].split()
    parts[1] = "NaNopeN"
    lines[7] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="non-numeric"):
        read_file(path)


def test_read_row_count_mismatch(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-4]) + "\n")
    with pytest.raises(ManifestError, match="expected .* rows"):
        read_file(path)
    full = _psi_file(tmp_path)
    text = full.read_text()
    full.write_text(text + text.splitlines()[-1] + "\n")
    with pytest.raises(ManifestError, match="more data rows"):
        read_file(full)


def test_read_plane_without_nu_param(tmp_path):
    gx = UniformGrid1D.symmetric(1.0, 3)
    plane = TomogramPlane(0.4, gx, gx, np.ones((3, 3)))
    path = tmp_path / "plane.txt"
    write_file(path, plane)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('{"nu":0.4}', "{}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="params.nu"):
        read_file(path)


def test_read_refuses_other_format_versions(tmp_path):
    gx = UniformGrid1D.symmetric(1.0, 3)
    path = tmp_path / "plane.txt"
    write_file(path, TomogramPlane(0.4, gx, gx, np.ones((3, 3))))
    text = path.read_text()
    assert '"version":"1"' in text
    path.write_text(text.replace('"version":"1"', '"version":"7"', 1))
    with pytest.raises(ManifestError, match=r"plane\.txt: format version '7'"):
        read_file(path)


def test_read_refuses_a_manifest_without_version(tmp_path):
    gx = UniformGrid1D.symmetric(1.0, 3)
    path = tmp_path / "plane.txt"
    write_file(path, TomogramPlane(0.4, gx, gx, np.ones((3, 3))))
    text = path.read_text()
    path.write_text(text.replace(',"version":"1"', "", 1))
    assert '"version"' not in path.read_text()
    with pytest.raises(ManifestError, match="version"):
        read_file(path)


def test_read_wraps_payload_validation(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    # scale one sample so the norm gate trips: payload error becomes ManifestError
    parts = lines[20].split()
    parts[1] = "0.9"
    lines[20] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match="validation"):
        read_file(path)


def test_stray_comment_lines_ignored(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    lines.insert(10, "# a stray annotation")
    path.write_text("\n".join(lines) + "\n")
    _, payload = read_file(path)
    assert payload.grid.count == 33


def test_trailing_comment_does_not_misname_a_later_error(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    lines[4] += " # a note"
    parts = lines[9].split()
    parts[1] = "x"
    lines[9] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=r"psi\.txt:10: non-numeric column"):
        read_file(path)


def test_read_coordinate_mismatch(tmp_path):
    path = _psi_file(tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[12].split()
    parts[0] = repr(float(parts[0]) + 1e-3)
    lines[12] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=r"psi\.txt:13: coordinates do not match"):
        read_file(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_read_non_finite_value(tmp_path, token):
    gx = UniformGrid1D.symmetric(1.0, 3)
    path = tmp_path / "plane.txt"
    write_file(path, TomogramPlane(0.4, gx, gx, np.ones((3, 3))))
    lines = path.read_text().splitlines()
    parts = lines[3].split()
    parts[2] = token
    lines[3] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=r"plane\.txt:4: non-finite value"):
        read_file(path)


def _plane_file(tmp_path):
    # X points such as -0.90000000000000002, mu points 0.5, 1, 1.5
    gx, gmu = UniformGrid1D(-1.0, 0.1, 21), UniformGrid1D(0.5, 0.5, 3)
    path = tmp_path / "plane.txt"
    write_file(path, TomogramPlane(0.4, gx, gmu, np.ones((21, 3))))
    return path


MISMATCH = "coordinates do not match"


@pytest.mark.parametrize("line, col, rewrite, equal, error", [
    (7, 0, lambda t: repr(float(t)), True, MISMATCH),  # -0.90000000000000002 -> -0.9
    (4, 1, lambda t: t + ".0", True, MISMATCH),  # 1 -> 1.0
    (3, 1, lambda t: "5e-1", True, MISMATCH),  # 0.5 -> 5e-1
    (8, 0, lambda t: t + "000000000", True, MISMATCH),  # past 25 bytes
    (9, 1, lambda t: "abc", False, MISMATCH),
    # the S25 comparison strips trailing NULs, so the file scan must refuse them
    (11, 0, lambda t: t + "\0\0", False, "NUL byte"),
], ids=["shortest-repr", "trailing-zero", "exponent", "padded", "non-numeric", "nul"])
def test_read_non_canonical_coordinate(tmp_path, line, col, rewrite, equal, error):
    path = _plane_file(tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split()
    new = rewrite(parts[col])
    assert new != parts[col]
    if equal:  # the same number, spelled another way
        assert float(new) == float(parts[col])
    parts[col] = new
    lines[line - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError, match=rf"plane\.txt:{line}: {error}"):
        read_file(path)


def test_read_peak_memory_is_about_the_file_size(tmp_path):
    # 2253 X by 47 mu points: over five times the X count of the reference
    # sweep's largest plane (445 by 46)
    gx, gmu = UniformGrid1D.symmetric(11.0, 2253), UniformGrid1D.symmetric(1.0, 47)
    vals = np.abs(np.random.default_rng(3).normal(size=(2253, 47)))
    path = tmp_path / "plane.txt"
    write_file(path, TomogramPlane(0.0, gx, gmu, vals))
    tracemalloc.start()
    try:
        _, plane = read_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(plane.values, vals)
    assert peak < 2 * path.stat().st_size


# ---------------------------------------------------------------------------
# parse cache


def _listing(d):
    return sorted((str(p.relative_to(d)), p.stat().st_size) for p in d.rglob("*"))


def test_written_file_reads_from_its_entry_without_parsing(tmp_path, monkeypatch):
    path = _plane_file(tmp_path)
    assert [p.name for p in (tmp_path / ".wavetomo-cache").iterdir()] == ["plane.txt.npy"]
    monkeypatch.setattr(fileio, "_parse", lambda *a: pytest.fail("the text was parsed"))
    _, plane = read_file(path)
    assert plane.nu == 0.4 and np.array_equal(plane.values, np.ones((21, 3)))


def test_entry_values_are_read_into_the_array_the_payload_keeps(tmp_path):
    # 2253 X by 47 mu points (0.85 MB): a copy into the payload would trace 2 arrays
    gx, gmu = UniformGrid1D.symmetric(11.0, 2253), UniformGrid1D.symmetric(1.0, 47)
    path = tmp_path / "plane.txt"
    write_file(path, TomogramPlane(0.0, gx, gmu, np.ones((2253, 47))))
    read_file(path)  # a first call's lazy imports are not working memory
    tracemalloc.start()
    try:
        _, plane = read_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(plane.values, np.ones((2253, 47)))
    assert peak < 1.25 * plane.values.nbytes


def test_same_length_value_edit_reads_the_edited_value(tmp_path):
    path = _psi_file(tmp_path)
    _, psi = read_file(path)
    lines = path.read_text().splitlines()
    parts = lines[20].split()  # the 19th data row: x re im
    digit = parts[1][-1]
    parts[1] = parts[1][:-1] + ("1" if digit != "1" else "2")
    lines[20] = " ".join(parts)
    text = "\n".join(lines) + "\n"
    assert len(text) == path.stat().st_size
    path.write_text(text)
    _, edited = read_file(path)
    assert edited.values[18].real == float(parts[1]) != psi.values[18].real
    assert np.array_equal(np.delete(edited.values, 18), np.delete(psi.values, 18))


def _parsed(monkeypatch):
    """A list that gets one entry per call of the text parse."""
    calls, parse = [], fileio._parse
    monkeypatch.setattr(fileio, "_parse", lambda *a: calls.append(a[1]) or parse(*a))
    return calls


def test_text_cut_to_a_prefix_of_its_copy_is_not_read_from_the_entry(tmp_path):
    path = _plane_file(tmp_path)
    text = path.read_bytes()
    path.write_bytes(text[: text.rindex(b"\n", 0, -1) + 1])  # the last row gone
    with pytest.raises(ManifestError, match=r"expected 63 data rows, found 62"):
        read_file(path)


def test_appended_comment_is_parsed_to_the_same_values(tmp_path, monkeypatch):
    path = _psi_file(tmp_path)
    _, psi = read_file(path)
    with open(path, "a") as f:
        f.write("# note\n")
    calls = _parsed(monkeypatch)
    _, back = read_file(path)
    assert calls == [path] and back.values.tobytes() == psi.values.tobytes()


def test_same_length_edit_in_the_last_row_reads_the_edited_value(tmp_path):
    path = _psi_file(tmp_path)
    _, psi = read_file(path)
    text = path.read_bytes()
    at = len(text) - 2  # the last digit of the last row's im column
    digit = b"1" if text[at:at + 1] != b"1" else b"2"
    path.write_bytes(text[:at] + digit + text[at + 1 :])
    _, edited = read_file(path)
    last = path.read_text().splitlines()[-1].split()
    assert edited.values[-1].imag == float(last[2]) != psi.values[-1].imag
    assert np.array_equal(edited.values[:-1], psi.values[:-1])


def test_entry_in_the_digest_and_npy_layout_falls_back_to_the_parse(tmp_path, monkeypatch):
    # an older entry: the blake2b-256 digest of the text, then the values as .npy
    path = _plane_file(tmp_path)
    with open(fileio._entry(path), "wb") as f:
        f.write(hashlib.blake2b(path.read_bytes(), digest_size=32).digest())
        np.save(f, np.ones((21, 3)), allow_pickle=False)
    calls = _parsed(monkeypatch)
    _, plane = read_file(path)
    assert calls == [path] and np.array_equal(plane.values, np.ones((21, 3)))


class _RewrittenOnClose:
    """A file opened by write_file whose path gets the bytes new once it is closed."""

    def __init__(self, f, path, new):
        self.f, self.path, self.new = f, path, new

    def __enter__(self):
        return self.f

    def __exit__(self, *exc):
        self.f.close()
        self.path.write_bytes(self.new)


@pytest.mark.parametrize("when", ["closed", "replace"])
def test_text_rewritten_before_its_entry_is_replaced_reads_the_new_text(tmp_path, monkeypatch,
                                                                        when):
    # the entry's copy is the bytes the writer wrote, never read back from the text:
    # the old values must not pair with a text rewritten once it is closed, or as the
    # entry is put in place
    other = tmp_path / "other"
    other.mkdir()
    gx, gmu = UniformGrid1D(-1.0, 0.1, 21), UniformGrid1D(0.5, 0.5, 3)
    write_file(other / "plane.txt", TomogramPlane(0.7, gx, gmu, np.full((21, 3), 2.0)))
    path, new, replace = tmp_path / "plane.txt", (other / "plane.txt").read_bytes(), os.replace

    def rewrite_then_replace(src, dst):
        path.write_bytes(new)
        replace(src, dst)

    def open_text(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _RewrittenOnClose(f, path, new) if file == path and mode == "wb" else f

    if when == "closed":
        monkeypatch.setattr(fileio, "open", open_text, raising=False)
    else:
        monkeypatch.setattr(os, "replace", rewrite_then_replace)
    write_file(path, TomogramPlane(0.4, gx, gmu, np.ones((21, 3))))
    monkeypatch.undo()
    assert fileio._entry(path).exists()
    _, plane = read_file(path)
    assert plane.nu == 0.7 and np.array_equal(plane.values, np.full((21, 3), 2.0))


@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong-shape", "wrong-dtype"])
def test_damaged_entry_falls_back_to_the_text_parse(tmp_path, damage):
    path = _plane_file(tmp_path)
    entry = fileio._entry(path)
    good = entry.read_bytes()
    digest = good[:32]

    def npy(a):
        with open(entry, "wb") as f:
            f.write(digest)
            np.save(f, a, allow_pickle=False)

    if damage == "truncated":
        entry.write_bytes(good[: len(good) - 100])
    elif damage == "garbage":
        entry.write_bytes(bytes(range(256)) * 4)
    elif damage == "wrong-shape":
        npy(np.full((3, 21), 2.0))
    else:
        npy(np.full((21, 3), 2.0, dtype=np.float32))
    _, plane = read_file(path)
    assert np.array_equal(plane.values, np.ones((21, 3)))


def test_read_leaves_the_directory_unchanged(tmp_path):
    path = _plane_file(tmp_path)
    before = _listing(tmp_path)
    read_file(path)
    assert _listing(tmp_path) == before
    for entry in (tmp_path / ".wavetomo-cache").iterdir():
        entry.unlink()
    (tmp_path / ".wavetomo-cache").rmdir()
    read_file(path)
    assert _listing(tmp_path) == [("plane.txt", path.stat().st_size)]


def test_blocked_cache_directory_still_writes_the_text(tmp_path):
    free, blocked = tmp_path / "free", tmp_path / "blocked"
    free.mkdir()
    blocked.mkdir()
    (blocked / ".wavetomo-cache").write_bytes(b"not a directory")
    psi = gcf_sampled(P, UniformGrid1D.symmetric(5.0, 33))
    write_file(free / "psi.txt", psi)
    write_file(blocked / "psi.txt", psi)
    assert (blocked / "psi.txt").read_bytes() == (free / "psi.txt").read_bytes()
    assert (blocked / ".wavetomo-cache").read_bytes() == b"not a directory"
    _, back = read_file(blocked / "psi.txt")
    assert np.array_equal(back.values, psi.values)


def test_entry_write_error_drops_the_entry_and_still_writes_the_text(tmp_path, monkeypatch):
    # every write to the entry's temporary file fails (EBADF): no entry and no
    # temporary file is left, and the text is the bytes of a write without the error
    psi = gcf_sampled(P, UniformGrid1D.symmetric(8.0, 5001))  # 0.3 MB, past any buffer
    write_file(tmp_path / "want.txt", psi)
    failing = tmp_path / "failing"
    failing.mkdir()
    mkstemp = tempfile.mkstemp

    def read_only(**kwargs):
        fd, name = mkstemp(**kwargs)
        os.close(fd)
        return os.open(name, os.O_RDONLY), name

    monkeypatch.setattr(tempfile, "mkstemp", read_only)
    write_file(failing / "psi.txt", psi)
    assert (failing / "psi.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    assert list((failing / ".wavetomo-cache").iterdir()) == []


def test_manifest_and_values_come_from_the_same_bytes(tmp_path, monkeypatch):
    # the text is rewritten in place after it is compared while the old
    # entry is still there: the old entry's values must not pair with the new manifest
    path = _plane_file(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    gx, gmu = UniformGrid1D(-1.0, 0.1, 21), UniformGrid1D(0.5, 0.5, 3)
    write_file(other / "plane.txt", TomogramPlane(0.7, gx, gmu, np.full((21, 3), 2.0)))
    scan = fileio._scan

    def scan_then_rewrite(f, p, entry):
        out = scan(f, p, entry)
        path.write_bytes((other / "plane.txt").read_bytes())
        return out

    monkeypatch.setattr(fileio, "_scan", scan_then_rewrite)
    _, plane = read_file(path)
    assert plane.nu == 0.7 and np.array_equal(plane.values, np.full((21, 3), 2.0))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_entry_has_its_texts_permissions_and_is_still_read(tmp_path, monkeypatch, umask):
    # whoever can read the text can read its entry: mkstemp's 0600 would make every
    # other reader of a shared sweep parse the text again
    old = os.umask(umask)
    try:
        path = _plane_file(tmp_path)
    finally:
        os.umask(old)
    mode = os.stat(path).st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert os.stat(fileio._entry(path)).st_mode & 0o777 == mode
    monkeypatch.setattr(fileio, "_parse", lambda *a: pytest.fail("the text was parsed"))
    _, plane = read_file(path)
    assert plane.nu == 0.4 and np.array_equal(plane.values, np.ones((21, 3)))


def test_only_a_regular_file_gets_an_entry(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    link = tmp_path / "link.txt"
    link.symlink_to(target / "psi.txt")
    psi = gcf_sampled(P, UniformGrid1D.symmetric(5.0, 33))
    write_file(link, psi)
    assert not (tmp_path / ".wavetomo-cache").exists()
    assert not (target / ".wavetomo-cache").exists()
    _, back = read_file(link)
    assert np.array_equal(back.values, psi.values)


# ---------------------------------------------------------------------------
# the streamed scan: one pass over blocks of _SCAN_BYTES for NUL bytes, the comparison
# with the entry's copy and the first line


def _scanned(path):
    """_scan's (first line, entry bytes after its copy) of path against its entry,
    and the line the open file reads next."""
    with open(path, encoding="utf-8") as f, open(fileio._entry(path), "rb") as entry:
        head, left = fileio._scan(f, path, entry)
        return head, left, f.readline()


def test_nul_several_blocks_in_is_refused_naming_its_line(tmp_path):
    path = tmp_path / "psi.txt"
    write_file(path, gcf_sampled(P, UniformGrid1D.symmetric(8.0, 5001)))
    text = path.read_bytes()
    at = text.index(b"\n", 4 * fileio._SCAN_BYTES) + 5  # a digit in the fifth block
    line = text[:at].count(b"\n") + 1
    assert at // fileio._SCAN_BYTES == 4 and line > 3000
    path.write_bytes(text[:at] + b"\0" + text[at + 1 :])
    with pytest.raises(ManifestError, match=rf"psi\.txt:{line}: NUL byte"):
        read_file(path)


def test_first_line_longer_than_a_block_reads_from_its_entry(tmp_path, monkeypatch):
    path = tmp_path / "psi.txt"
    psi = gcf_sampled(P, UniformGrid1D.symmetric(5.0, 33))
    note = "x" * (3 * fileio._SCAN_BYTES)
    write_file(path, psi, provenance=note)
    head, _, line = _scanned(path)
    assert len(head) > 3 * fileio._SCAN_BYTES and head == line.encode("utf-8")
    # the entry is read only when that line is the first line of the hashed bytes
    monkeypatch.setattr(fileio, "_parse", lambda *a: pytest.fail("the text was parsed"))
    manifest, back = read_file(path)
    assert manifest.provenance == note and np.array_equal(back.values, psi.values)


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("text", [b"", b"#MANIFEST {} and no newline" * 9, b"a\n\nb\n", None],
                         ids=["empty", "no-newline", "short-lines", "written"])
def test_scan_takes_the_first_line_and_the_digest_of_every_byte(tmp_path, monkeypatch,
                                                                 block, text):
    # the first line, and the comparison of every byte with the entry's copy: equal
    # only when the copy is the text, byte for byte, and the values follow it
    path = tmp_path / "f.txt"
    entry = fileio._entry(path)
    if text is None:
        write_file(path, gcf_sampled(P, UniformGrid1D.symmetric(5.0, 33)))
        text = path.read_bytes()
        assert entry.read_bytes()[: len(text)] == text and _scanned(path)[1] == 33 * 16
    else:
        path.write_bytes(text)
        entry.parent.mkdir()
    if block:
        monkeypatch.setattr(fileio, "_SCAN_BYTES", block)

    def same(copy, values=b"\1" * 16):
        entry.write_bytes(copy + values)
        head, left, line = _scanned(path)
        assert head == text[: text.find(b"\n") + 1 or len(text)]
        assert line.encode("utf-8") == head  # the file is left at its start
        return left == len(values)

    assert same(text) and same(text, b"")
    assert not same(text + b"\n")  # a shorter text than the copy
    if text:
        # a longer text than the copy, whose last byte differs from or equals the
        # first value byte
        assert not same(text[:-1]) and not same(text[:-1], text[-1:] + b"\1" * 15)
        i = len(text) // 2
        assert not same(text[:i] + bytes([text[i] ^ 1]) + text[i + 1 :])  # one byte changed


def test_manifest_without_a_newline_reads_as_a_file_without_rows(tmp_path):
    path = tmp_path / "psi.txt"
    write_file(path, gcf_sampled(P, UniformGrid1D.symmetric(5.0, 33)))
    path.write_bytes(path.read_bytes().split(b"\n", 1)[0])
    with pytest.raises(ManifestError, match=r"expected 33 data rows, found 0"):
        read_file(path)
