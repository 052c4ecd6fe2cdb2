"""Every name a module of the package exports has a reader in the package.

A name in the ``__all__`` of a module other than ``gasbox/__init__.py``
must be read somewhere under ``src/gasbox`` (as a name or an attribute),
or be re-exported by ``gasbox/__init__.py``; a helper whose last caller
went away then fails here instead of lingering.  An exception in
``ALLOWED`` must itself still occur in a ``perfbench/*.py`` file.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gasbox"

# exported without a reader in the package, on purpose
ALLOWED = {
    "ke_balance_residual": "traced by perfbench as diagnostics.ke_balance_ms",
    "entropy_balance_residual": "traced by perfbench as diagnostics.entropy_balance_ms",
    "split_diffusive_flux": "traced by perfbench as fluxes.split_diffusive_flux_ms",
    "read_snapshot": "read by perfbench",
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    reexported = {alias.name for node in ast.walk(trees["__init__"])
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = [name for module, tree in trees.items() if module != "__init__"
              for name in _exports(tree) if name not in read | reexported]
    assert sorted(unread) == sorted(ALLOWED)


def test_allowed_names_are_read_by_perfbench():
    # an entry leaves with the benchmark metric that read it
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert [name for name in ALLOWED if not re.search(rf"\b{name}\b", text)] == []
