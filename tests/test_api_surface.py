"""Every exported name has a user, and the letter check has one home.

A name in a submodule's __all__ must be re-exported by the package, be
the console-script target, or be used somewhere in the package source
beyond its own definition and its __all__ entry.  Letters are checked
only where a Word is built, and the unchecked letter kernel is reached
only from the two modules that apply letters.  Transvections have one
checked spec and one kernel entry, and the vector type and matrix
builder they replaced are gone.  Word.__init__ takes no flag to skip
the check: words built from checked words (products, inverses, shuffles
and lifts) go through the private _checked_word, named only in the
generators and decompose modules.  A decomposition record splits its
monomial core once, in its constructor, and the three-factor splitting
builds no dense block matrix.  The transvection laws and the theta
conjugation identity live in the identity suite only, and a monomial
core's letters are checked by the Word that holds them.  The package
takes no dense product and forms no matrix sum, difference or outer
product; the letter builders are one-letter words run through the
kernel, and the dense letter oracle in the tests is built without them.
Matrix.row_add, Matrix.col_add and apply_transvection loop over no
entries with ring add, mul or is_zero: "line plus scaled line" is the
ring's own axpy or col_axpy.  A local ring's residue map lives on the
ring (reduce and lift), and local_decompose tests the form once, on its
residual, and reads congruence off the residual's reduction.  The split
form is written once, in FormContext.gram_row: tilde, phi and quad loop
over no indices, and the column test behind is_orthogonal and
similitude_multiplier and the transvection kernel read the same row,
with no partner table and no unknown-multiplier mode.  The wire format
is written once: rings, matrices, words and records render text with
to_text, each of their to_json methods reads that text back, and only
the CLI's _emit hands a dict to the stdlib encoder.

Every function earns a caller.  A fresh interpreter is traced while it
imports the package and runs the CLI goldens (CASES, REJECT_CASES and
TRUNC_CASES), run_suite("all", 42, 5) and mutation_selftest().  Every
def in the package source, nested ones included, must be reached there
or be allowed: by rule, the value and debug protocol (__eq__, __hash__,
__repr__, __bool__, show, _poly_str) anywhere and the ring protocol
(reduce, sample, sample_unit, is_unit, inv) on a Ring, and otherwise by
name, each with its reason.  A named entry that the trace reaches is
stale and fails the test too.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import orthgen
from orthgen import rings
from orthgen.quadratic_space import Matrix, Vector

from test_cli import CASES, GOLDEN, REJECT_CASES, TRUNC_CASES

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
    word = next(node for node in trees["generators.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "Word")
    init = next(node for node in word.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert [arg.arg for arg in init.args.args] == ["self", "ctx", "ring", "letters"]
    assert not (init.args.kwonlyargs or init.args.vararg or init.args.kwarg)
    # Words built from checked words skip the check, in the two modules that build them.
    assert sorted(name for name, tree in trees.items()
                  if "_checked_word" in _names(tree)) == ["decompose.py", "generators.py"]
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


def _loop_calls(fn):
    """Names called inside the loops and comprehensions of a function's body."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for loop in ast.walk(fn) if isinstance(loop, loops)
            for node in ast.walk(loop) if isinstance(node, ast.Call)}


def test_line_updates_reach_ring_arithmetic_only_through_the_line_ops():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    kernels = {("quadratic_space.py", "row_add"): {"axpy"},
               ("quadratic_space.py", "col_add"): {"col_axpy"},
               ("transvections.py", "apply_transvection"): {"axpy", "col_axpy"}}
    for (module, name), line_ops in kernels.items():
        fns = [node for node in ast.walk(trees[module])
               if isinstance(node, ast.FunctionDef) and node.name == name]
        assert len(fns) == 1
        assert not {"add", "mul", "is_zero"} & _loop_calls(fns[0]), name
        assert line_ops <= {getattr(node.func, "attr", None)
                            for node in ast.walk(fns[0]) if isinstance(node, ast.Call)}
    assert not any("_slot" in _names(tree) for tree in trees.values())


def test_residue_maps_live_on_the_ring_and_the_local_form_is_tested_once():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert not any({"residue_scalar", "lift_scalar"} & _names(tree) for tree in trees.values())
    assert not {"IdealDescriptor", "matrices_congruent"} & _names(trees["decompose.py"])
    sites = _call_sites(trees["decompose.py"], "is_orthogonal")
    assert sites.count("local_decompose") == 1
    residue_ring = [node for node in ast.walk(trees["rings.py"])
                    if isinstance(node, ast.FunctionDef) and node.name == "residue_ring"]
    assert "kind" not in _names(residue_ring[0])


def test_the_split_form_is_written_once():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    form = trees["quadratic_space.py"]
    functions = {node.name: node for node in ast.walk(form) if isinstance(node, ast.FunctionDef)}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in ("phi", "quad", "tilde"):
        assert not any(isinstance(node, loops) for node in ast.walk(functions[name])), name
        assert not {"u", "v", "delta"} & _names(functions[name]), name
    assert sorted(set(_call_sites(form, "gram_row"))) == ["FormContext.tilde", "_scales_form"]
    assert _call_sites(form, "_scales_form") == ["is_orthogonal", "similitude_multiplier"]
    assert _call_sites(form, "delta") == []
    assert "partner" not in _names(form)
    test = functions["_scales_form"]
    assert not any(isinstance(node, ast.Constant) and node.value is None for node in ast.walk(test))
    assert set(_call_sites(trees["transvections.py"], "gram_row")) == {"apply_transvection"}
    assert _call_sites(trees["transvections.py"], "tilde") == []


def test_the_wire_format_is_written_once():
    # A ring, matrix, word or record writes its JSON as text with to_text;
    # each to_json among them reads that text back.  Only the suite's
    # report and failure records build dicts, and only _emit encodes one.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    built = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = ".".join(scope + (child.name,))
                if child.name in ("to_json", "word_to_json"):
                    ret = child.body[-1]
                    if getattr(getattr(ret.value, "func", None), "attr", None) != "loads":
                        built.append(name)
                visit(child, scope + (child.name,))

    for module, tree in trees.items():
        visit(tree, (module[:-3],))
    assert sorted(built) == ["identity_suite.SuiteReport.to_json", "transvections.TransvectionSpec.to_json"]
    sites = [(name, site) for name, tree in trees.items() for site in _call_sites(tree, "canonical_json")]
    assert sites == [("cli.py", "_emit")]


# Run in a fresh interpreter: (filename, first line) of every code object
# the package calls, from its own import on.  The cases come on stdin.
_TRACE = """
import io, json, os, sys

cases = json.load(sys.stdin)
reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from orthgen import cli, mutation_selftest, run_suite
for name, argv, stdin_text, expect_code in cases:
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    code = cli.main(argv)
    sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__
    assert code == expect_code, (name, code)
assert run_suite("all", 42, 5).total_failures == 0
assert all(mutation_selftest().values())
sys.setprofile(None)
package = os.path.dirname(cli.__file__)
print(json.dumps(sorted(site for site in reached if os.path.dirname(site[0]) == package)))
"""

# Allowed anywhere: the value and debug protocol.
_VALUE_PROTOCOL = {"__eq__", "__hash__", "__repr__", "__bool__", "show", "_poly_str"}
# Allowed on a Ring subclass: the ring protocol every ring implements.
_RING_PROTOCOL = {"reduce", "sample", "sample_unit", "is_unit", "inv"}
# Allowed by name, each with its reason.
_ALLOWED = {
    "rings.Scalar.__add__": "the benchmark's certificate pool bumps a witness parameter with +",
    "quadratic_space.Matrix.__matmul__": "the benchmark builds its pools with dense products",
    "generators.perm_matrix": "the benchmark builds its monomial pool with it",
    "generators.Word.__len__": "the benchmark counts witness letters with len",
    "rings.LaurentRing.to_text": "the benchmark's certificate pool writes Laurent letters",
    "decompose.TmtDecomposition.from_json": "the benchmark reloads tmt answers to check them",
    "decompose.HorrocksInstance.to_json": "the benchmark serializes its certificate requests",
    "decompose.HorrocksInstance.to_text": "HorrocksInstance.to_json reads it back; the CLI prints a verdict",
    "cli.main_entry": "the console script",
    "rings._oversized": "error path: a rational past the digit limit",
    "identity_suite._vec_json": "error path: records the vectors of a failing law",
    "generators.word_to_json": "error path: records the word of a failing R5.2 sample",
    "transvections.TransvectionSpec.to_json": "error path: records a failing transvection",
    "generators._list_from_json": "validates a PERM or DIAG letter on load",
}


def _defs():
    """{(filename, first line): (module, qualname, class)} of every def in the package."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = path.stem

        def visit(node, scope, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), line)] = (module, ".".join(scope + (child.name,)), cls)
                    visit(child, scope + (child.name,), None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + (child.name,), child.name)
                else:
                    visit(child, scope, cls)

        visit(ast.parse(path.read_text(encoding="utf-8")), (), None)
    return found


def _is_ring_method(module, cls):
    return module == "rings" and cls is not None and issubclass(getattr(rings, cls), rings.Ring)


def test_every_function_is_reached_or_allowed():
    cases = [(name, argv, (GOLDEN / stdin_name).read_text(encoding="utf-8") if stdin_name else "", code)
             for name, argv, stdin_name, code in CASES + REJECT_CASES + TRUNC_CASES]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TRACE], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reached = {(str(Path(name).resolve()), line) for name, line in json.loads(proc.stdout)}
    unreached = set()
    for (path, line), (module, qualname, cls) in _defs().items():
        if (str(Path(path).resolve()), line) in reached:
            continue
        name = qualname.rsplit(".", 1)[-1]
        if name in _VALUE_PROTOCOL or (name in _RING_PROTOCOL and _is_ring_method(module, cls)):
            continue
        unreached.add(f"{module}.{qualname}")
    assert sorted(unreached - set(_ALLOWED)) == []
    assert sorted(set(_ALLOWED) - unreached) == [], "stale allowlist entries"
