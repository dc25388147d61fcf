"""Every exported name has a user, and the letter check has one home.

A name in a submodule's __all__ must be re-exported by the package, be
the console-script target, or be used somewhere in the package source
beyond its own definition and its __all__ entry.  Letters are checked
only where a Word is built, and the unchecked letter kernel is reached
only from the two modules that apply letters.  Transvections have one
checked spec and one kernel entry, and the vector type and matrix
builder they replaced are gone.  A decomposition record splits its
monomial core once, in its constructor, and the three-factor splitting
builds no dense block matrix.  The transvection laws and the theta
conjugation identity live in the identity suite only, and a monomial
core's letters are checked by the Word that holds them.  The package
takes no dense product and forms no matrix sum, difference or outer
product; the letter builders are one-letter words run through the
kernel, and the dense letter oracle in the tests is built without them.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import orthgen
from orthgen.quadratic_space import Matrix, Vector

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


def _names(tree):
    """Every name a module mentions: bare, as an attribute, or imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _call_sites(tree, name):
    """The dotted class/function scope of every call to name in a module."""
    sites = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                sites.append(".".join(scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return sites


def test_letters_are_checked_only_where_a_word_is_built():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    sites = [(name, site) for name, tree in trees.items()
             for site in _call_sites(tree, "_validate_letter")]
    assert sites == [("generators.py", "Word.__init__")]
    assert not any("apply_letter" in _names(tree) for tree in trees.values())
    assert sorted(name for name, tree in trees.items()
                  if "_apply_letter" in _names(tree)) == ["decompose.py", "generators.py"]


def test_transvections_have_one_spec_and_one_kernel_entry():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    gone = {"SplitVector", "transvection", "_check_transvection"}
    assert not any(gone & _names(tree) for tree in trees.values())
    kernel = [node for node in ast.walk(trees["transvections.py"])
              if isinstance(node, ast.FunctionDef) and node.name == "apply_transvection"]
    assert [arg.arg for arg in kernel[0].args.args] == ["m", "spec", "left"]


def test_certified_factors_are_split_or_built_once():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    sites = [(name, site) for name, tree in trees.items()
             for site in _call_sites(tree, "mo_split")]
    assert sites == [("decompose.py", "TmtDecomposition.__init__")]
    assert not {"embed_blocks", "outer"} & _names(trees["transvections.py"])


def test_identities_live_in_the_suite_and_core_letters_are_checked_once():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert not any("transvection_law" in text for text in sources.values())
    trees = {name: ast.parse(text) for name, text in sources.items()}
    conj = [node for node in ast.walk(trees["decompose.py"])
            if isinstance(node, ast.FunctionDef) and node.name == "theta_conjugate"]
    assert [arg.arg for arg in conj[0].args.args] == ["beta", "direction", "ctx"]
    assert not conj[0].args.kwonlyargs and conj[0].args.vararg is None
    for helper in ("_check_perm", "_diag_entries"):
        assert [name for name, tree in trees.items() if helper in _names(tree)] == ["generators.py"]


def test_no_dense_algebra_and_builders_go_through_the_kernel():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert [name for name, tree in trees.items()
            if any(isinstance(node, ast.MatMult) for node in ast.walk(tree))] == []
    assert not {"__add__", "__sub__", "__neg__"} & set(vars(Matrix))
    assert "outer" not in vars(Vector)
    builders = ("gen_F", "gen_oe", "perm_matrix", "diag_orthogonal", "theta")
    assert set(builders) <= set(_call_sites(trees["generators.py"], "eval_word"))
    oracle = ast.parse((Path(__file__).parent / "dense_oracle.py").read_text(encoding="utf-8"))
    assert not (set(builders) | {"_f_terms", "_oe_terms", "_slot", "apply_word", "eval_word",
                                 "_apply_letter"}) & _names(oracle)
