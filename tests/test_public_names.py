"""No unused public helper: every name in a revcarleson module's __all__ is
used by the library, wrapped by the benchmark's tracer, or kept as the
oracle of a named criterion."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "revcarleson"

# public names no library module calls, kept as test oracles, each with
# the criterion it serves
ORACLES = {
    ("geometry", "sigma_of_ball"): "the exact sigma(Q) that cap masses "
                                   "are checked against (test_measures)",
    ("kernels", "cauchy_kernel"): "the pointwise k_w of criterion 07",
    ("kernels", "phi_h"): "the balayage decay of criterion 02",
    ("measures", "radon_nikodym_profile"): "the density ratio of criterion 06",
    ("dbr", "dbr_kernel"): "the pointwise K^b_w of criterion 07",
}


def _library_references() -> set:
    """Every name, attribute and imported name in the library modules
    other than __init__.py."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


def test_every_public_name_is_used(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    wrapped = {(layer, name) for layer, names in tracing.LAYERS.items()
               for name in names}
    refs = _library_references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"revcarleson.{path.stem}")
        unused += [(path.stem, name) for name in getattr(module, "__all__", ())
                   if name not in refs and (path.stem, name) not in wrapped
                   and (path.stem, name) not in ORACLES]
    assert not unused, f"public names nothing uses: {unused}"


def test_every_oracle_is_public():
    for module, name in ORACLES:
        assert name in importlib.import_module(f"revcarleson.{module}").__all__
