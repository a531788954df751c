"""Tomographic representations of complex wavefunctions.

Forward maps: symplectic tomogram w(X, mu, nu), its optical ((mu, nu) on the
unit circle) and Fresnel (mu = 1) families, for 1D states and N-axis states
of up to three axes. Inverse maps: the wavefunction, the density matrix and the
Wigner function as linear read-outs of one table of the tomographic
characteristic function, built from plane sweeps, sampled Fresnel maps or
source callables. The
chirped-Gaussian model state is built in as the analytic anchor for every
numerical path, and a text file format plus CLI expose the whole pipeline.
"""

import importlib

__version__ = "0.1.0"

# the library modules, each listing its public names once in its __all__; the
# package exports their union, and loads a module only when one of its names,
# or the union, is first read (PEP 562), so `import wavetomo.cli` does not
# load the inversion code
_LIBRARY = ("errors", "grid", "tomography", "reconstruct", "analytic")
_SUBMODULES = _LIBRARY + ("fileio", "oracles", "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        globals()[name] = ["__version__"] + [n for m in _LIBRARY for n in __getattr__(m).__all__]
        return globals()[name]
    # a public name: load the library modules in turn until one exports it
    for mod in () if name.startswith("_") else map(__getattr__, _LIBRARY):
        if name in mod.__all__:
            globals()[name] = value = getattr(mod, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
