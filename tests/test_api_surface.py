"""Every exported name has a user.

A name in a submodule's __all__ must be re-exported by the package, be
the console-script target, or be used somewhere in the package source
beyond its own definition and its __all__ entry.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import orthgen

PACKAGE_DIR = Path(orthgen.__file__).parent
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _script_targets():
    text = PYPROJECT.read_text(encoding="utf-8")
    return set(re.findall(r'^\S+\s*=\s*"orthgen\.\w+:(\w+)"', text, re.M))


def _used_names():
    """Every name the package source reads, as a bare name or an attribute."""
    used = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller():
    scripts = _script_targets()
    assert "main_entry" in scripts
    allowed = set(orthgen.__all__) | scripts | _used_names()
    orphans = []
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"orthgen.{info.name}")
        orphans += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if name not in allowed]
    assert orphans == []
