"""Dataset file format: manifests, round trips, parse failures.

Every kind must survive write-then-read bit exactly; 17-significant-digit
decimal serialization guarantees that for 64-bit floats.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavetomo.analytic import (
    GcfParams,
    gcf_autocorrelation,
    gcf_plane_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_width,
)
from wavetomo.errors import ManifestError
from wavetomo.cli import golden_dir
from wavetomo.fileio import _KINDS, Manifest, WidthMap, read_file, write_file
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.reconstruct import DensityMatrix, PsiAutocorrelation, WignerFunction
from wavetomo.tomography import FresnelTomogram, OpticalTomogram, TomogramPlane

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


def test_autocorrelation_round_trip(tmp_path):
    g = UniformGrid1D.symmetric(3.0, 41)
    ac = PsiAutocorrelation(g, gcf_autocorrelation(P, g.points))
    path = tmp_path / "ac.txt"
    write_file(path, ac)
    _, payload = read_file(path)
    assert np.array_equal(payload.values, ac.values)


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
    PsiAutocorrelation: lambda d: PsiAutocorrelation(
        g := _draw_grid(d), _draw_complex(d, (g.count,))),
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


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.payload.__name__)
@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_round_trip_property(kind, data, tmp_path):
    # write -> read is bit exact; write -> read -> write is byte identical
    payload = DRAW_PAYLOAD[kind.payload](data)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    write_file(first, payload, {"tag": "prop"}, "property test")
    m, back = read_file(first)
    assert type(back) is type(payload)
    assert back.values.dtype == payload.values.dtype
    assert back.values.shape == payload.values.shape
    assert back.values.tobytes() == payload.values.tobytes()
    write_file(second, back, m.params, m.provenance)
    assert second.read_bytes() == first.read_bytes()


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
