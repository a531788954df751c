"""Run the lib-inversion library calls in a fresh process.

usage: python3 perfbench/libworker.py OUT_DIR TRACE SIGMA ALPHA

Builds the inputs (closed-form source callables of the chirped Gaussian with
width SIGMA and chirp ALPHA, and a Fresnel map sampled from its closed form),
times each inversion call, then writes OUT_DIR/record.json (the stamp when
the inputs are ready, call times, CPU, peak RSS and, with TRACE=1, spans) and
OUT_DIR/results.npz (each output with the grid points it lives on). The
harness calibrates these times by the kernel it runs around this process.
"""
from __future__ import annotations

import json
import os
import resource
import sys

from spans import Tracer, now, peak_rss_kb

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The sampled map must cover every rescaled lookup (X/mu, nu/mu) the 9-point
# grid makes with 64 mu nodes on [-40, 40]: |X/mu| <= 41.5, |nu/mu| <= 3.15.
FRESNEL_MAP = ((42.0, 3201), (3.2, 281))
SECOND_AXIS = (1.2, 0.0)  # the two-axis state's second factor: (sigma / SIGMA, alpha)


def _points(args, out):
    return {"points": int(out.size)}


def main(argv) -> int:
    out_dir, trace = argv[0], argv[1] == "1"
    sigma, alpha = float(argv[2]), float(argv[3])
    sys.path.insert(0, SRC)
    import numpy as np
    import wavetomo.reconstruct as rec
    from wavetomo.analytic import GcfParams, gcf_fresnel_analytic, gcf_tomogram_analytic
    from wavetomo.grid import UniformGrid1D

    tracer = Tracer() if trace else None

    def traced(name, fn, attrs=None):
        return tracer.wrap(name, fn, attrs) if tracer else fn

    p = GcfParams(sigma, alpha)
    p2 = GcfParams(SECOND_AXIS[0] * sigma, SECOND_AXIS[1])

    def one_axis(X, mu, nu):
        return gcf_tomogram_analytic(p, X, mu, nu)

    def two_axes(X1, X2, mu1, mu2, nu1, nu2):
        return gcf_tomogram_analytic(p, X1, mu1, nu1) * gcf_tomogram_analytic(p2, X2, mu2, nu2)

    source = traced("analytic.source", one_axis, _points)
    source_nd = traced("analytic.source", two_axes, _points)
    (xh, xn), (nh, nn) = FRESNEL_MAP
    fmap = gcf_fresnel_analytic(p, UniformGrid1D.symmetric(xh, xn), UniformGrid1D.symmetric(nh, nn))
    if tracer:
        adapt = rec.fresnel_as_symplectic_source
        rec.fresnel_as_symplectic_source = lambda f: tracer.wrap(
            "reconstruct.fresnel_lookup", adapt(f), _points)

    g65 = UniformGrid1D.symmetric(2.0, 65)
    g41 = UniformGrid1D.symmetric(3.0, 41)
    g9 = UniformGrid1D.symmetric(1.0, 9)
    ops = [
        ("rho_source", lambda: rec.reconstruct_density_matrix(source, g65)),
        ("wigner_source", lambda: rec.reconstruct_wigner(source, g41, g41)),
        ("rho_fresnel_map", lambda: rec.reconstruct_density_matrix_fresnel(
            fmap, g9, rec.InversionConfig(samples_per_axis=64))),
        ("rho_nd", lambda: rec.reconstruct_density_matrix_nd(
            source_nd, (g9, g9),
            rec.InversionConfig(mu_window=12.0, taper_fraction=0.2, samples_per_axis=32))),
    ]

    times, errors, results = {}, {}, {}
    t_ready = now()
    for name, call in ops:
        call = traced("reconstruct." + name, call)
        t = now()
        try:
            results[name] = call()
        except Exception as e:  # an operation failure is a result to report
            errors[name] = f"{type(e).__name__}: {e}"
        times[name] = now() - t
    main_s = sum(times.values())
    ru = resource.getrusage(resource.RUSAGE_SELF)

    arrays = {}
    for name, r in results.items():
        arrays[name] = r.values
        if hasattr(r, "grid"):
            arrays[name + "_x"] = r.grid.points
        elif hasattr(r, "grid_q"):
            arrays[name + "_q"], arrays[name + "_p"] = r.grid_q.points, r.grid_p.points
        else:
            for k, g in enumerate(r.grids):
                arrays[f"{name}_x{k}"] = g.points
    np.savez(os.path.join(out_dir, "results.npz"), **arrays)
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as f:
        json.dump({
            "t_ready": t_ready, "main_s": main_s, "times": times, "errors": errors,
            "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": peak_rss_kb(),
            "spans": tracer.spans if tracer else [],
        }, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
