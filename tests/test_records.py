"""The package's records: each behaves as the frozen dataclass it replaces.

Every record derives from `grid._Record`. Its fields, defaults,
``__post_init__`` checks, immutability, equality, hashing and repr are checked
here against a frozen dataclass built on the same fields, and no package
module loads `dataclasses`.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wavetomo import fileio
from wavetomo.analytic import GcfParams
from wavetomo.errors import ManifestError, UnsupportedSizeError
from wavetomo.fileio import Manifest, WidthMap, _Kind
from wavetomo.grid import (DensityMatrix, DensityMatrixNd, SampledWavefunction, UniformGrid1D,
                           WignerFunction)
from wavetomo.reconstruct import InversionConfig, PsiReconstruction, _Row
from wavetomo.tomography import (FresnelTomogram, Moments, NdWavefunction, OpticalTomogram,
                                 TomogramPlane)

G = UniformGrid1D(0.0, 1.0, 3)
ONES = np.ones((3, 3))
PSI = SampledWavefunction.normalized(G, np.ones(3))

# one record of each class, with its fields in declaration order
RECORDS = [
    (G, ("start", "step", "count")),
    (PSI, ("grid", "values")),
    (DensityMatrix(G, np.eye(3)), ("grid", "values", "asymmetry")),
    (DensityMatrixNd((G,), np.eye(3), 1e-9), ("grids", "values", "asymmetry")),
    (WignerFunction(G, G, ONES, 2e-3), ("grid_q", "grid_p", "values", "imag_residue")),
    (TomogramPlane(0.5, G, G, ONES), ("nu", "grid_x", "grid_mu", "values")),
    (FresnelTomogram(G, G, ONES), ("grid_x", "grid_nu", "values")),
    (OpticalTomogram(G, G, ONES), ("grid_x", "grid_theta", "values")),
    (NdWavefunction((G,), np.ones(3)), ("grids", "values")),
    (Moments(0.0, 0.1, 1.0, 2.0, 0.5), ("mean_q", "mean_p", "var_q", "var_p", "cov")),
    (WidthMap(G, np.ones(3)), ("grid", "values")),
    (_Kind("width_map", WidthMap, ("grid",), "nu width"),
     ("kind", "payload", "axes", "columns", "scalars", "variant")),
    (Manifest("fresnel_tomogram", (G, G), {"sigma": 0.5}, "gcf run"),
     ("kind", "grids", "params", "provenance", "version")),
    (PsiReconstruction(PSI, np.ones(3, complex), 1.0, 0.5, 0.0),
     ("psi", "autocorrelation", "prenorm_l2", "anchor", "anchor_imag")),
    (InversionConfig(), ("mu_window", "taper_fraction", "samples_per_axis")),
    (_Row((0.5,), 0.25, np.linspace(-1.0, 1.0, 4), np.ones(4, complex)), ("nu", "w_nu", "mu", "c")),
    (GcfParams(1.0, 0.5), ("sigma", "alpha")),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


def _values(record, names):
    return tuple(getattr(record, f) for f in names)


def _outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e)


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, names):
    for f in names:
        before = getattr(record, f)
        with pytest.raises(AttributeError):
            setattr(record, f, before)
        with pytest.raises(AttributeError):
            delattr(record, f)
        assert getattr(record, f) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_equality_hash_and_repr_are_a_frozen_dataclasss(record, names):
    # a second record from the same fields (post-init copies any array), each beside
    # a frozen dataclass holding the same values: both pairs agree on ==, hash and repr
    ref = dataclasses.make_dataclass(type(record).__qualname__, names, frozen=True)
    again = type(record)(*_values(record, names))
    ref_a, ref_b = ref(*_values(record, names)), ref(*_values(again, names))
    assert repr(record) == repr(ref_a)
    assert _outcome(lambda: record == again) == _outcome(lambda: ref_a == ref_b)
    assert _outcome(lambda: record != again) == _outcome(lambda: ref_a != ref_b)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(ref_a))
    assert _outcome(lambda: hash(record) == hash(again)) == _outcome(
        lambda: hash(ref_a) == hash(ref_b))
    assert record != ref_a and record != _values(record, names)


@pytest.mark.parametrize("record, names", RECORDS, ids=IDS)
def test_keyword_construction(record, names):
    by_name = type(record)(**dict(zip(names, _values(record, names))))
    assert repr(by_name) == repr(record)
    with pytest.raises(TypeError):
        type(record)(*_values(record, names), None)
    with pytest.raises(TypeError):
        type(record)(*_values(record, names)[1:], **{names[0]: getattr(record, names[0]),
                                                      names[1]: getattr(record, names[1])})
    with pytest.raises(TypeError):
        type(record)(**dict(zip(names, _values(record, names))), unknown=1)


def test_reprs_read_as_before():
    assert repr(G) == "UniformGrid1D(start=0.0, step=1.0, count=3)"
    assert repr(GcfParams(1.0)) == "GcfParams(sigma=1.0, alpha=0.0)"
    assert repr(InversionConfig()) == (
        "InversionConfig(mu_window=40.0, taper_fraction=0.2, samples_per_axis=128)")
    assert repr(Manifest("wavefunction", (G,))) == (
        "Manifest(kind='wavefunction', grids=(UniformGrid1D(start=0.0, step=1.0, count=3),), "
        "params={}, provenance='', version='1')")


def test_defaults_apply():
    assert InversionConfig() == InversionConfig(40.0, 0.2, 128)
    assert InversionConfig(samples_per_axis=64) == InversionConfig(40.0, 0.2, 64)
    assert GcfParams(2.0).alpha == 0.0
    assert DensityMatrix(G, np.eye(3)).asymmetry == 0.0
    assert WignerFunction(G, G, ONES).imag_residue == 0.0
    kind = _Kind("wavefunction", SampledWavefunction, ("grid",), "x re im")
    assert (kind.scalars, kind.variant) == ((), None)
    a, b = Manifest("wavefunction", (G,)), Manifest("wavefunction", (G,))
    assert a.params == {} and a.params is not b.params  # a new dict each, as a default_factory
    assert (a.provenance, a.version) == ("", fileio.FORMAT_VERSION)
    with pytest.raises(TypeError):
        UniformGrid1D(0.0, 1.0)


@pytest.mark.parametrize("make, error, match", [
    (lambda: UniformGrid1D(0.0, 0.0, 3), ValueError, "grid step"),
    (lambda: UniformGrid1D(0.0, 1.0, 1), ValueError, "at least 2 points"),
    (lambda: UniformGrid1D.symmetric(1.0, 1), ValueError, "at least 2 points, got 1"),
    (lambda: UniformGrid1D(math.inf, 1.0, 3), ValueError, "grid start"),
    (lambda: UniformGrid1D(0.0, 1.0, 2.5), ValueError, "grid count must be an integer, got 2.5"),
    (lambda: UniformGrid1D(-4.0, 0.25, 33.0), ValueError, "an integer, got 33.0"),
    (lambda: SampledWavefunction(G, np.ones(3)), ValueError, "squared norm"),
    (lambda: DensityMatrix(G, np.triu(ONES)), ValueError, "hermiticity defect"),
    (lambda: DensityMatrixNd((G,), np.triu(ONES)), ValueError, "hermiticity defect"),
    (lambda: WignerFunction(G, G, np.ones((3, 2))), ValueError, "does not match"),
    (lambda: TomogramPlane(math.nan, G, G, ONES), ValueError, "nu must be finite"),
    (lambda: FresnelTomogram(G, G, -ONES), ValueError, "nonnegative"),
    (lambda: OpticalTomogram(G, G, np.full((3, 3), np.nan)), ValueError, "finite"),
    (lambda: NdWavefunction((G,) * 4, np.ones((3,) * 4)), UnsupportedSizeError, "1..3"),
    (lambda: WidthMap(G, np.ones(4)), ValueError, "does not match"),
    (lambda: Manifest("hologram", (G,)), ManifestError, "unknown kind"),
    (lambda: Manifest("wigner", (G,)), ManifestError, "requires 2 grids"),
    (lambda: InversionConfig(mu_window=-1.0), ValueError, "mu_window"),
    (lambda: InversionConfig(taper_fraction=1.0), ValueError, "taper_fraction"),
    (lambda: InversionConfig(samples_per_axis=9), ValueError, "samples_per_axis"),
    (lambda: InversionConfig(samples_per_axis=64.0), ValueError, "an even integer .* got 64.0"),
    (lambda: GcfParams(0.0), ValueError, "sigma"),
    (lambda: GcfParams(1.0, math.inf), ValueError, "alpha"),
])
def test_post_init_checks_raise(make, error, match):
    assert issubclass(error, ValueError)
    with pytest.raises(error, match=match):
        make()


def test_numpy_integer_counts_are_accepted():
    assert UniformGrid1D(0.0, 1.0, np.int64(3)) == G
    assert UniformGrid1D.symmetric(1.0, np.int32(5)).points.size == 5
    assert InversionConfig(samples_per_axis=np.int64(64)) == InversionConfig(samples_per_axis=64)


def test_the_cli_never_loads_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fileio.__file__)))
    code = "import sys, wavetomo.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
