"""The oracle table that `wavetomo validate` and the acceptance tests both run.

``ORACLES`` holds rows ``(name, level, check)`` in print order; level is
"fast" or "full". ``check()`` measures against an independent oracle
(quadrature, a closed form, or the golden files in ``golden_dir()``, which no
row writes to) and returns ``(ok, detail)``, the detail naming each measured
number and its frozen tolerance (RESOLUTIONS.md).
"""
from __future__ import annotations

import cmath
import itertools
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import fileio
from .analytic import (GcfParams, analytic_plane_set, fock1_psi, fock1_tomogram, fock1_wigner,
                       gaussian2_psi, gaussian2_tomogram, gcf_fresnel_analytic,
                       gcf_plane_analytic, gcf_psi, gcf_sampled, gcf_tomogram_analytic,
                       gcf_tomogram_ft_analytic, gcf_wigner_analytic)
from .grid import SampledWavefunction, UniformGrid1D
from .reconstruct import (InversionConfig, density_matrix_from_planes,
                          reconstruct_density_matrix, reconstruct_density_matrix_fresnel,
                          reconstruct_density_matrix_nd, reconstruct_psi, reconstruct_wigner,
                          wigner_from_planes)
from .tomography import (NdWavefunction, fresnel_tomogram, optical_tomogram,
                         plane_grids_for_slice, symplectic_tomogram_nd, symplectic_tomogram_plane,
                         wavefunction_moments)

__all__ = ["ORACLES", "golden_dir", "golden_name"]

GOLDEN_COMBOS = [(s, a) for s in (0.5, 1.0) for a in (0.0, 0.5, 1.0, 2.0, 3.0)]
GOLDEN_GRID_X = UniformGrid1D.symmetric(4.0, 41)
GOLDEN_GRID_NU = UniformGrid1D.symmetric(2.0, 21)
GOLDEN_PROVENANCE = "wavetomo validate --level full (golden regeneration)"  # the files' own

# mu nodes of the slice planes: centred near the chirp-shifted ridges, and
# the half-step offset keeps the degenerate mu = 0 column out
SLICE_MU = UniformGrid1D(-17.05, 0.1, 322)


def golden_name(sigma: float, alpha: float) -> str:
    return f"golden_s{fileio._tag(sigma)}_a{fileio._tag(alpha)}.txt"


def golden_dir() -> Path:
    return Path(__file__).resolve().parent / "golden"


def _point(psi: SampledWavefunction, X: float, mu: float, nu: float) -> float:
    """w(X, mu, nu) of psi, the one-axis symplectic_tomogram_nd."""
    return symplectic_tomogram_nd(NdWavefunction((psi.grid,), psi.values), (X,), (mu,), (nu,))


def _plane_transform(grid_x, grid_y, values, omega_x: float, omega_y: float) -> complex:
    """(1/2pi) Sum_{n,m} f[n,m] e^{i(omega_x X_n + omega_y Y_m)} dX dY, at exact frequencies."""
    total = np.exp(1j * omega_x * grid_x.points) @ values @ np.exp(1j * omega_y * grid_y.points)
    return complex(total * grid_x.step * grid_y.step / (2.0 * np.pi))


def _psi_slice(p: GcfParams, nu: float, grid_x: UniformGrid1D) -> np.ndarray:
    """psi(nu') conj(psi(0)), the plane transform at (1, -nu'/2), for nu' = -nu, 0, nu:
    the characteristic table of closed-form planes on (grid_x, SLICE_MU), no taper."""
    planes = [gcf_plane_analytic(p, grid_x, SLICE_MU, v) for v in (-nu, 0.0, nu)]
    return reconstruct_psi(planes, InversionConfig(taper_fraction=0.0)).autocorrelation


def _end_to_end_psi():
    p = GcfParams(1.0, 1.0)
    rec = reconstruct_psi(analytic_plane_set(p, [float(v) for v in np.linspace(-4.0, 4.0, 129)]))
    target = gcf_psi(p, rec.psi.grid.points)
    err = float(np.sqrt(np.trapezoid(np.abs(rec.psi.values - target) ** 2, dx=rec.psi.grid.step)))
    return err <= 1e-5, f"relative L2 error {err:.2e} (tol 1e-5) on a 129-plane sweep"


def _tomogram_closed_form():
    worst = 0.0
    for s, a in ((1.0, 0.0), (1.0, 1.0), (0.5, 3.0)):
        p = GcfParams(s, a)
        psi = gcf_sampled(p, count=4096)
        for X, mu, nu in itertools.product((-2.0, 0.0, 2.0), (-1.0, 0.5, 2.0), (0.25, 1.0, 2.0)):
            dev = abs(_point(psi, X, mu, nu) - gcf_tomogram_analytic(p, X, mu, nu))
            worst = max(worst, dev)
    return worst <= 1e-13, f"max dev vs quadrature {worst:.2e} (tol 1e-13)"


def _width_form_resolution():
    # which printed width reading matches a numeric profile (they differ off sigma = 1)
    p = GcfParams(0.5, 0.0)
    mu, nu, x_probe = 1.0, 0.5, 0.4
    psi = gcf_sampled(p, count=4096)
    w0, wx = (_point(psi, X, mu, nu) for X in (0.0, x_probe))
    omega_fit = x_probe / math.sqrt(-math.log(wx / w0))
    quartic = math.sqrt((4 * nu**2 + p.sigma**4 * mu**2) / (2 * p.sigma**2))
    quadratic = math.sqrt((4 * nu**2 + p.sigma**2 * mu**2) / (2 * p.sigma**2))
    dev, alt = abs(omega_fit - quartic), abs(omega_fit - quadratic)
    return dev <= 1e-12 and alt > 1e-2, (
        f"fitted width {omega_fit:.8f}; quartic-sigma form {quartic:.8f} matches to {dev:.2e} "
        f"(tol 1e-12), quadratic-sigma alternative {quadratic:.8f} deviates {alt:.2e} (over 1e-2)")


def _plane_transform_closed_form():
    # closed-form planes are fair input (tomogram-closed-form ties them to quadrature);
    # the window holds the slow mu decay at omega_X = 0.5 and the wide edge columns
    p = GcfParams(1.0, 1.0)
    gx = UniformGrid1D.symmetric(80.0, 1601)
    gmu = UniformGrid1D(-30.0, 0.1, 601)
    freqs = [(1.0, -0.25), (0.7, 0.3), (1.5, 0.0),
             *itertools.product((0.5, 1.0, 2.0), (-1.0, 0.3, 1.0))]
    worst = 0.0
    for nu in (0.5, 0.8):
        plane = gcf_plane_analytic(p, gx, gmu, nu)
        for om_x, om_mu in freqs:
            got = _plane_transform(gx, gmu, plane.values, om_x, om_mu)
            worst = max(worst, abs(got - gcf_tomogram_ft_analytic(p, om_x, om_mu, nu)))
    return worst <= 1e-6, f"max dev {worst:.2e} (tol 1e-6) over nu 0.5, 0.8 x 12 frequencies"


def _autocorrelation_slice():
    nu = 0.5
    gx = UniformGrid1D.symmetric(40.0, 1601)
    dev = phase = 0.0
    for a in (1.0, 2.0):
        p = GcfParams(1.0, a)
        with warnings.catch_warnings():
            # the anchor plane's mu = +-0.05 columns span 0.46 X steps here and
            # the table warns of them; this check reads the nu = 0.5 row only
            warnings.filterwarnings("ignore", "plane nu=0:", RuntimeWarning)
            s = complex(_psi_slice(p, nu, gx)[2])
        dev = max(dev, abs(s - gcf_psi(p, nu) * np.conj(gcf_psi(p, 0.0))))
        phase = max(phase, abs(cmath.phase(s) - a * nu**2))
    return dev <= 1e-6 and phase <= 1e-6, (
        f"slice at (1, -nu/2) from the characteristic table, chirps 1 and 2: "
        f"value dev {dev:.2e} (tol 1e-6), chirp phase dev {phase:.2e} (tol 1e-6)")


def _entangled_two_mode():
    # psi ~ exp(-x^T A x / 2) with off-diagonal A: no product state, and the
    # axis-swapped state differs by 4.9e-2 on the rho grid, so a swap of the
    # two axes anywhere in the N = 2 path fails the rho tolerance
    A = np.array([[1.0, 0.6], [0.6, 1.5]])
    g = UniformGrid1D.symmetric(8.0, 301)
    psi = NdWavefunction((g, g), gaussian2_psi(A, g.points[:, None], g.points[None, :]))
    dev = 0.0
    for X, mu, nu in (((0.3, -0.5), (0.8, -0.4), (0.6, 1.2)),
                      ((-1.0, 0.7), (1.5, 0.5), (-0.7, 0.9)),
                      ((0.2, 0.4), (-0.3, 1.0), (1.1, -0.5))):
        want = float(gaussian2_tomogram(A, *X, *mu, *nu))
        dev = max(dev, abs(symplectic_tomogram_nd(psi, X, mu, nu) - want) / want)
    g3 = UniformGrid1D.symmetric(1.0, 3)
    rho = reconstruct_density_matrix_nd(
        lambda *a: gaussian2_tomogram(A, *a), (g3, g3),
        InversionConfig(mu_window=16.0, samples_per_axis=32))
    p3 = gaussian2_psi(A, g3.points[:, None], g3.points[None, :])
    err = float(np.max(np.abs(rho.values - np.multiply.outer(p3, p3))))
    return dev <= 4e-12 and err <= 4e-10, (
        f"closed form vs symplectic_tomogram_nd at three points: max rel dev {dev:.2e} "
        f"(tol 4e-12); reconstruct_density_matrix_nd on 3x3 over +-1 vs psi psi*: "
        f"max dev {err:.2e} (tol 4e-10)")


def _flat_limit():
    # every nu = 0 value reads psi's band-limited interpolant: on cli-forward's grids the
    # Fresnel nu' = 0 row and the optical theta = 0, pi rows (cos t = 1, -1), then the
    # reference sweep's nu = 0 plane, then nu = 0 axes of the entangled state off a node
    p, cos_t = GcfParams(1.0, 2.0), np.array([1.0, -1.0])
    gx, g6 = UniformGrid1D.symmetric(8.0, 481), UniformGrid1D.symmetric(6.0, 241)
    fr = fresnel_tomogram(gcf_sampled(p), gx, UniformGrid1D.symmetric(2.0, 161)).values[:, 80]
    op = optical_tomogram(gcf_sampled(p), g6, UniformGrid1D(0.0, math.pi, 2)).values
    devs = [fr - gcf_tomogram_analytic(p, gx.points, 1.0, 0.0),
            op - gcf_tomogram_analytic(p, g6.points[:, None], cos_t, 0.0)]
    p, psi = GcfParams(1.0, 1.0), gcf_sampled(GcfParams(1.0, 1.0))
    pl = symplectic_tomogram_plane(psi, *plane_grids_for_slice(0.0, wavefunction_moments(psi)), 0.0)
    devs.append(pl.values - gcf_plane_analytic(p, pl.grid_x, pl.grid_mu, 0.0).values)
    A, g = np.array([[1.0, 0.6], [0.6, 1.5]]), UniformGrid1D.symmetric(8.0, 301)
    nd = NdWavefunction((g, g), gaussian2_psi(A, g.points[:, None], g.points[None, :]))
    devs.append([symplectic_tomogram_nd(nd, X, mu, nu) / gaussian2_tomogram(A, *X, *mu, *nu) - 1.0
                 for X, mu, nu in (((0.0, 0.4), (0.0, 1.0), (1.0, 0.0)),
                                   ((0.3, -0.5), (0.8, 1.3), (0.0, 0.0)))])
    fr, op, sweep, rel = (float(np.max(np.abs(d))) for d in devs)
    return max(fr, op, sweep, rel) <= 1e-12, (
        f"max dev from the closed forms (tol 1e-12 each): Fresnel nu' = 0 row {fr:.2e}, optical "
        f"theta = 0, pi rows {op:.2e}, sweep nu = 0 plane {sweep:.2e}; entangled state on 301^2 "
        f"points, X/mu off a node: max rel dev {rel:.2e}")


def _fresnel_map_rho():
    # a sampled map of the lib-inversion benchmark's shape, integrated on its own X' grid;
    # resampling it at 64 abscissas per column instead gave 1.0e-2 to 4.0e-2 here
    gx, gn = UniformGrid1D.symmetric(42.0, 3201), UniformGrid1D.symmetric(3.2, 281)
    g9, worst = UniformGrid1D.symmetric(1.0, 9), 0.0
    for s, a in ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (0.8, 0.5), (1.2, 1.0)):
        p = GcfParams(s, a)
        rho = reconstruct_density_matrix_fresnel(
            gcf_fresnel_analytic(p, gx, gn), g9, InversionConfig(samples_per_axis=64))
        psi = gcf_psi(p, g9.points)
        worst = max(worst, float(np.max(np.abs(rho.values - np.outer(psi, psi.conj())))))
    return worst <= 7e-4, (
        f"rho from a 3201 x 281 Fresnel map (X' +-42, nu' +-3.2) on 9 points over +-1, "
        f"64 samples, five states: max dev from psi psi* {worst:.2e} (tol 7e-4)")


def _fock1_inversion():
    # an odd state with a node at 0 and a negative W: the source inversions' mirrored
    # rows must hold beyond the Gaussians, at the default config
    g, gq = UniformGrid1D.symmetric(2.0, 33), UniformGrid1D.symmetric(3.0, 25)
    rho = reconstruct_density_matrix(fock1_tomogram, g)
    psi = fock1_psi(g.points)
    err = float(np.max(np.abs(rho.values - np.outer(psi, psi))))
    w00 = float(reconstruct_wigner(fock1_tomogram, gq, gq).values[12, 12])
    dev = abs(w00 - float(fock1_wigner(0.0, 0.0)))
    return err <= 4e-7 and dev <= 2e-7, (
        f"Hermite-Gauss n = 1 source, default config: rho on 33 points over +-2 vs psi_1 psi_1*: "
        f"max dev {err:.2e} (tol 4e-7); W(0, 0) = {w00:.6f} vs -1/pi: dev {dev:.2e} (tol 2e-7)")


def _mixed_state_inversion():
    # the mixture (|0><0| + |1><1|)/2, whose tomogram is the mean of its states': no other
    # source in the table is mixed, so rho is no outer product psi psi* and W no pure state's
    p0, cfg = GcfParams(math.sqrt(2.0)), InversionConfig()

    def source(X, mu, nu):
        return 0.5 * (gcf_tomogram_analytic(p0, X, mu, nu) + fock1_tomogram(X, mu, nu))

    g, gq = UniformGrid1D.symmetric(2.0, 33), UniformGrid1D.symmetric(3.0, 25)
    x, q, pm = g.points, gq.points[:, None], gq.points[None, :]
    psi0, psi1 = gcf_psi(p0, x), fock1_psi(x)
    want = 0.5 * (np.outer(psi0, psi0.conj()) + np.outer(psi1, psi1))
    err = float(np.max(np.abs(reconstruct_density_matrix(source, g, cfg).values - want)))
    W = reconstruct_wigner(source, gq, gq, cfg).values
    dev = float(np.max(np.abs(W - 0.5 * (gcf_wigner_analytic(p0, q, pm) + fock1_wigner(q, pm)))))
    return err <= 2e-11 and dev <= 2e-10, (
        f"(|0><0| + |1><1|)/2 source, default config: rho on 33 points over +-2 vs "
        f"(psi_0 psi_0* + psi_1 psi_1*)/2: max dev {err:.2e} (tol 2e-11); W on 25 x 25 over "
        f"+-3 vs (W_0 + W_1)/2: max dev {dev:.2e} (tol 2e-10)")


def _fock1_planes():
    # the plane path (adaptive grids, chirp-z planes, plane table) on a state that is
    # not Gaussian, though plane_grids_for_slice sizes its grids from moments alone
    g, gq = UniformGrid1D.symmetric(8.0, 1025), UniformGrid1D.symmetric(3.0, 25)
    psi = SampledWavefunction.normalized(g, fock1_psi(g.points))
    moments = wavefunction_moments(psi)
    planes = [symplectic_tomogram_plane(psi, *plane_grids_for_slice(nu, moments), nu)
              for nu in np.linspace(-5.0, 5.0, 61).tolist()]
    dm = density_matrix_from_planes(planes)
    x = dm.grid.points
    err = float(np.max(np.abs(dm.values - np.outer(fock1_psi(x), fock1_psi(x)))))
    w = wigner_from_planes(planes, gq, gq)
    dev = float(np.max(np.abs(w.values - fock1_wigner(gq.points[:, None], gq.points[None, :]))))
    return err <= 2e-4 and dev <= 1.2e-2, (
        f"Hermite-Gauss n = 1 on 1025 points over +-8, 61 planes over +-5: rho on their "
        f"{x.size} points vs psi_1 psi_1*: max dev {err:.2e} (tol 2e-4); W on 25 x 25 over "
        f"+-3 vs the closed form: max dev {dev:.2e} (tol 1.2e-2)")


def _optical_fresnel_bridge():
    # which optical/Fresnel bridge holds
    p = GcfParams(1.0, 1.0)
    psi = gcf_sampled(p, count=4097)
    dev_good = dev_alt = 0.0
    for theta, X in itertools.product((0.3, 1.0, 2.2), (-0.8, 0.4)):
        c, s = math.cos(theta), math.sin(theta)
        direct = _point(psi, X, c, s)
        good = gcf_tomogram_analytic(p, X / c, 1.0, s / c) / abs(c)
        alt = gcf_tomogram_analytic(p, X / s, 1.0, c / s) / abs(s)
        dev_good = max(dev_good, abs(direct - good))
        dev_alt = max(dev_alt, abs(direct - alt))
    return dev_good <= 1e-13 and dev_alt > 1e-2, (
        f"(X/cos, tan)/|cos| form matches to {dev_good:.2e} (tol 1e-13); "
        f"(X/sin, cot)/|sin| alternative deviates {dev_alt:.2e} (over 1e-2)")


def _forward_identities():
    # identities between package outputs, over two chirped Gaussians and Fock n = 1:
    # homogeneity w(lX, lmu, lnu) = w / |l|, a nonnegative plane, and the Fresnel map as
    # the mu = 1 line of the point values (its nu' = 0 column by the flat rule)
    g = UniformGrid1D.symmetric(8.0, 4097)
    states = {"sigma 1, alpha 1": gcf_sampled(GcfParams(1.0, 1.0), count=4097),
              "sigma 0.5, alpha 2": gcf_sampled(GcfParams(0.5, 2.0), count=4097),
              "Fock n = 1": SampledWavefunction.normalized(g, fock1_psi(g.points))}
    gx, gn = UniformGrid1D.symmetric(4.0, 17), UniformGrid1D.symmetric(1.5, 7)
    scale, low, line = 0.0, math.inf, 0.0
    for psi in states.values():
        base = _point(psi, 0.7, 0.9, 0.6)
        scale = max(scale, *(abs(_point(psi, lam * 0.7, lam * 0.9, lam * 0.6)
                                 - base / abs(lam)) / base for lam in (-2.0, 0.5, 3.0)))
        plane = symplectic_tomogram_plane(psi, UniformGrid1D.symmetric(6.0, 101),
                                          UniformGrid1D.symmetric(4.0, 41), 0.7)
        low = min(low, float(plane.values.min()))
        wf = fresnel_tomogram(psi, gx, gn)
        line = max(line, *(abs(wf.values[i, j] - _point(psi, gx.point(i), 1.0, nu))
                           for i in (0, 8, 16) for j, nu in enumerate(gn.points.tolist())))
    return scale <= 1e-13 and low >= -1e-10 and line <= 1e-13, (
        f"over {'; '.join(states)} on 4097 points: homogeneity at scale factors -2, 0.5, 3 "
        f"max rel dev {scale:.2e} (tol 1e-13); min plane value at nu = 0.7 {low:.2e} "
        f"(floor -1e-10); Fresnel map vs the mu = 1 line max dev {line:.2e} (tol 1e-13)")


def _golden_files():
    # each closed-form map, written anew into a scratch directory, has the shipped bytes
    gdir, names = golden_dir(), [golden_name(s, a) for s, a in GOLDEN_COMBOS]
    missing = [n for n in names if not (gdir / n).is_file()]
    if missing:
        return False, f"missing {', '.join(missing)}"
    with tempfile.TemporaryDirectory() as tmp:
        for name, (s, a) in zip(names, GOLDEN_COMBOS):
            wf = gcf_fresnel_analytic(GcfParams(s, a), GOLDEN_GRID_X, GOLDEN_GRID_NU)
            fileio.write_file(Path(tmp, name), wf, {"sigma": s, "alpha": a}, GOLDEN_PROVENANCE)
        differ = [n for n in names if Path(tmp, n).read_bytes() != (gdir / n).read_bytes()]
    return not differ, (f"{', '.join(differ)} differ from the closed form's bytes" if differ else
                        f"{len(names)} files equal the closed form's bytes in {gdir}")


ORACLES = (
    ("end-to-end-psi", "full", _end_to_end_psi),
    ("entangled-two-mode", "full", _entangled_two_mode),
    ("fresnel-map-rho", "full", _fresnel_map_rho),
    ("fock1-inversion", "full", _fock1_inversion),
    ("mixed-state-inversion", "full", _mixed_state_inversion),
    ("fock1-planes", "full", _fock1_planes),
    ("tomogram-closed-form", "fast", _tomogram_closed_form),
    ("flat-limit", "fast", _flat_limit),
    ("width-form-resolution", "fast", _width_form_resolution),
    ("plane-transform-closed-form", "fast", _plane_transform_closed_form),
    ("autocorrelation-slice", "fast", _autocorrelation_slice),
    ("forward-identities", "fast", _forward_identities),
    ("optical-fresnel-bridge", "fast", _optical_fresnel_bridge),
    ("golden-files", "fast", _golden_files),
)
