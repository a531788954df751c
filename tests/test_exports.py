"""Public names: every `__all__` entry resolves, the package exports exactly
the union of its library modules' lists, every public name has a caller in
the program, and every wavetomo name the benchmark harness reads exists."""

import ast
import importlib
from pathlib import Path

import pytest

import wavetomo

LIBRARY = ["errors", "grid", "tomography", "reconstruct", "analytic"]
MODULES = ["wavetomo"] + [f"wavetomo.{m}" for m in LIBRARY + ["fileio", "oracles", "cli"]]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_the_library_lists():
    # what `from wavetomo import *` hands a user: each library module's public
    # names, bound to that module's own objects, plus __version__
    got = {}
    exec("from wavetomo import *", got)
    del got["__builtins__"]
    want = {"__version__": wavetomo.__version__}
    for m in LIBRARY:
        module = importlib.import_module(f"wavetomo.{m}")
        want.update((n, getattr(module, n)) for n in module.__all__)
    assert sorted(got) == sorted(want)
    assert [n for n in want if got[n] is not want[n]] == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_reads():
    """(file, module, name) for each `from wavetomo... import name` in perfbench
    and each `alias.name` where `import wavetomo.module as alias`.

    launch.PATCHES names its targets as strings and reports a missing one as
    untraced, so it is not read here.
    """
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wavetomo":
                yield from ((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                aliases.update((a.asname, a.name) for a in node.names
                               if a.asname and a.name.startswith("wavetomo."))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                yield path.name, aliases[node.value.id], node.attr


def _resolves(module_name, name):
    # a name may be a submodule that the package does not import itself
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_perfbench_names_resolve():
    reads = set(_perfbench_reads())
    # names read only on a traced run, or only by the harness
    assert {("libworker.py", "wavetomo.reconstruct", "fresnel_as_symplectic_source"),
            ("launch.py", "wavetomo.tomography", "EPS_NU"),
            ("checks.py", "wavetomo", "fileio")} <= reads
    assert sorted(r for r in reads if not _resolves(*r[1:])) == []


def test_perfbench_patch_targets_resolve():
    # launch.PATCHES wraps (module, name) pairs and counts a missing one as
    # untraced, so a name the CLI no longer binds at module level would leave
    # its traced layer at 0 without an error; the one stale target is known
    tree = ast.parse((PERFBENCH / "launch.py").read_text(), "launch.py")
    patches = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["PATCHES"])
    targets = [(row.elts[0].value, row.elts[1].value) for row in patches.elts]
    assert ("wavetomo.cli", "symplectic_tomogram_plane") in targets
    assert sorted(f"{m}.{n}" for m, n in targets if not _resolves(m, n)) == [
        "wavetomo.reconstruct.dft2_at"]


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counted


def test_perfbench_patch_points_catch_the_cli_calls(tmp_path, monkeypatch):
    # a traced run wraps each wavetomo.cli target of launch.PATCHES before main()
    # runs; every handler must call through that name, the lazily bound ones too
    from wavetomo import cli
    tree = ast.parse((PERFBENCH / "launch.py").read_text(), "launch.py")
    patches = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["PATCHES"])
    names = [row.elts[1].value for row in patches.elts
             if row.elts[0].value == "wavetomo.cli" and _resolves("wavetomo.cli", row.elts[1].value)]
    assert {"symplectic_tomogram_plane", "fresnel_tomogram", "optical_tomogram",
            "reconstruct_psi", "density_matrix_from_planes", "wigner_from_planes"} <= set(names)
    calls = []
    for name in names:
        monkeypatch.setattr(cli, name, _counting(calls, name, getattr(cli, name)))
    monkeypatch.chdir(tmp_path)
    sweep = ["--input", "pl_*.txt", "--output", "out.txt", "--target"]
    for argv in (["gcf", "--sigma", "1", "--output", "g"],
                 ["tomogram", "--input", "g_psi.txt", "--nu-min", "-1", "--nu-max", "1",
                  "--nu-count", "5", "--output", "pl_{index}.txt"],
                 ["tomogram", "--kind", "fresnel", "--input", "g_psi.txt", "--x-count", "81",
                  "--nu-count", "21", "--output", "fresnel.txt"],
                 ["tomogram", "--kind", "optical", "--input", "g_psi.txt", "--x-count", "81",
                  "--theta-count", "21", "--output", "optical.txt"],
                 ["reconstruct", *sweep, "psi"], ["reconstruct", *sweep, "rho"],
                 ["reconstruct", *sweep, "wigner", "--q-count", "9", "--p-count", "9"]):
        assert cli.main(argv) == 0, argv
    assert sorted(set(calls)) == sorted(names)


SRC = Path(wavetomo.__file__).resolve().parent
# the direct Wigner oracle, which the tests compare the inversions with
CALLED_BY_TESTS_ONLY = {"wigner_direct"}


def _program_reads():
    """Each name the package and the benchmark harness load as a name or an
    attribute, or import by name."""
    reads = set()
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(a.name for a in node.names)
    return reads


def test_every_public_name_has_a_caller():
    # a public name that no program path reads is API kept for no one: delete it
    # rather than let it drift untested
    public = {n for m in LIBRARY + ["fileio"]
              for n in importlib.import_module(f"wavetomo.{m}").__all__}
    assert CALLED_BY_TESTS_ONLY <= public
    assert sorted(public - _program_reads() - CALLED_BY_TESTS_ONLY) == []
