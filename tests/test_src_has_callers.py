"""Every public function and class in ``src/`` has a caller outside tests.

Code that only tests call is a second copy of behaviour the system does
not run; reference oracles belong in ``tests/oracles/``.  For every
module under ``src/`` other than a package ``__init__``, each name in
its ``__all__`` that the module binds with a top-level ``def`` or
``class`` must be referenced somewhere outside ``tests/``:

* as a loaded name, an attribute or an import alias in ``src/``,
  ``benchmarks/`` or ``examples/`` (a package ``__init__`` importing a
  name to re-export it does not count);
* or by a mention in the CI workflow, whose scripts import from
  ``repro`` too.

Names are matched by identifier, so a same-named attribute elsewhere
counts as a reference; the check catches API that nothing uses at all.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_FRAMING = "HPC-Ethernet frame arithmetic that PAPER.md maps the §II-F claims to"

#: (module path under src/repro, name) -> why it stays without a caller
ALLOWED = {
    ("core/ethernet.py", "effective_bandwidth"): _FRAMING,
    ("core/ethernet.py", "frame_rate"): _FRAMING,
    ("core/ethernet.py", "goodput_fraction"): _FRAMING,
    ("core/ethernet.py", "FecModel"): "the FEC lane overhead (56 -> 50 Gb/s) of §II-A",
}


def _references(path: Path) -> set:
    """Identifiers that *path* loads, reads as attributes or imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reexports = path.name == "__init__.py"
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def _all_references() -> set:
    found = set()
    for tree in (ROOT / "src", ROOT / "benchmarks", ROOT / "examples"):
        for path in sorted(tree.rglob("*.py")):
            found |= _references(path)
    found |= set(re.findall(r"\w+", (ROOT / ".github/workflows/ci.yml").read_text()))
    return found


def _exported_defs(path: Path) -> set:
    """``__all__`` names that *path* binds with a top-level def or class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported, defined = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return exported & defined


def _public_defs() -> set:
    """(module path under src/repro, name) for every checked name."""
    return {
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name in _exported_defs(path)
    }


def test_every_public_def_in_src_has_a_caller_outside_tests():
    refs, defs = _all_references(), _public_defs()
    stale = sorted(
        f"{module}: {name}"
        for module, name in ALLOWED
        if (module, name) not in defs or name in refs
    )
    assert not stale, (
        "allow-list entries no longer exported or now called: " + ", ".join(stale)
    )
    uncalled = sorted(
        f"{module}: {name}"
        for module, name in defs
        if name not in refs and (module, name) not in ALLOWED
    )
    assert not uncalled, (
        "public names in src/ that only tests use (delete them, move an "
        "oracle to tests/oracles/, or allow-list one with its reason): "
        + ", ".join(uncalled)
    )
