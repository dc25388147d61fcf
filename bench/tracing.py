"""Layer-by-layer instrumentation of orthgen, installed from outside the package.

Two instruments, used in separate passes so that neither distorts the
other:

* Spans.  Every public function of the span layers, the hot public
  methods and the CLI's parse/emit boundaries are wrapped so that each
  call records (name, start, end, parent, request).  A wrapper replaces
  the function under every name it is bound to in any orthgen module,
  so ``decompose.eval_word`` and ``cli.tmt_decompose`` are traced as
  well as the originals.  Spans stay in memory; self times are worked
  out at the end as a span's duration minus its children's.
* Counters.  The ring classes' payload methods count their calls, and
  a few boundaries record exact work: the right operand's nonzero
  share in matrix products, ring multiplications per letter evaluated,
  and letters applied.

Nothing under the package changes; every patch is undone by uninstall().
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPAN_LAYERS = ("quadratic_space", "generators", "transvections", "decompose", "identity_suite")
LAYERS = ("rings",) + SPAN_LAYERS + ("cli",)

SPAN_METHODS = {
    "quadratic_space": {"Matrix": ("__matmul__", "from_json", "to_json")},
    "decompose": {
        "TmtDecomposition": ("recompose", "to_json", "from_json"),
        "LocalDecomposition": ("recompose", "to_json", "from_json"),
        "HorrocksInstance": ("to_json", "from_json"),
    },
    "identity_suite": {"SuiteReport": ("to_json",)},
}
CLI_SPANS = ("main", "_read_payload", "_emit")
RING_OPS = ("mul", "add", "inv", "is_zero")

ROOT = "request"
MATMUL = "quadratic_space.Matrix.__matmul__"
PARSE = (
    "cli._read_payload",
    "quadratic_space.Matrix.from_json",
    "decompose.HorrocksInstance.from_json",
    "generators.word_from_json",
)
SERIALIZE = (
    "cli._emit",
    "quadratic_space.Matrix.to_json",
    "generators.word_to_json",
    "decompose.TmtDecomposition.to_json",
    "decompose.LocalDecomposition.to_json",
    "identity_suite.SuiteReport.to_json",
)
RECOMPOSE = ("decompose.TmtDecomposition.recompose", "decompose.LocalDecomposition.recompose")


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "orthgen" or name.startswith("orthgen."))]


class Tracer:
    """Span recorder and counters over one imported orthgen."""

    def __init__(self, og) -> None:
        self.og = og
        self.spans = []  # [name, start, end, parent index, request id]
        self._stack = []
        self.request = -1
        self.counts = {op: [0] for op in RING_OPS}
        self.work = dict.fromkeys(
            ("rhs_entries", "rhs_nonzero", "eval_letters", "eval_muls", "tmt_letters"), 0)
        self.suite_s = {}  # (request id, item id) -> seconds run_suite reported
        self._undo = []

    # --- patching ---------------------------------------------------------

    def _rebind(self, orig, new) -> None:
        """Replace orig by new under every name any orthgen module binds it to."""
        for mod in _library_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def _patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _span_targets(self):
        """(span name, owner class or None, attribute or function) for every span."""
        og = self.og
        for layer in SPAN_LAYERS:
            mod = getattr(og, layer)
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    yield f"{layer}.{name}", None, fn
            for cls_name, attrs in SPAN_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for attr in attrs:
                    if cls is not None and attr in cls.__dict__:
                        yield f"{layer}.{cls_name}.{attr}", cls, attr
        for name in CLI_SPANS:
            fn = getattr(og.cli, name, None)
            if fn is not None:
                yield f"cli.{name}", None, fn

    # --- spans --------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        begin, end = self.begin, self.end
        after = self._run_suite_times if name == "identity_suite.run_suite" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(rec)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _run_suite_times(self, report) -> None:
        for item, seconds in report.elapsed.items():
            key = (self.request, item)
            self.suite_s[key] = self.suite_s.get(key, 0.0) + seconds

    def install_spans(self) -> None:
        for name, cls, target in self._span_targets():
            if cls is None:
                self._rebind(target, self._spanned(name, target))
            else:
                self._patch_method(cls, target, functools.partial(self._spanned, name))

    # --- counters ------------------------------------------------------------

    def install_counters(self) -> None:
        og = self.og
        ring_classes = [c for c in vars(og.rings).values()
                        if isinstance(c, type) and issubclass(c, og.rings.Ring)]
        plain_is_zero = {c: c.is_zero for c in ring_classes if hasattr(c, "is_zero")}
        for cls in ring_classes:
            for op in RING_OPS:
                if op in cls.__dict__:
                    self._patch_method(cls, op, functools.partial(_counted, self.counts[op]))

        work, muls = self.work, self.counts["mul"]

        def matmul(fn):
            @functools.wraps(fn)
            def wrapper(a, b):
                is_zero = plain_is_zero[type(b.ring)]
                work["rhs_entries"] += b.dim * b.dim
                work["rhs_nonzero"] += sum(
                    1 for row in b.rows for x in row if not is_zero(b.ring, x))
                return fn(a, b)
            return wrapper

        def eval_word(fn):
            @functools.wraps(fn)
            def wrapper(word):
                before = muls[0]
                out = fn(word)
                work["eval_letters"] += len(word.letters)
                work["eval_muls"] += muls[0] - before
                return out
            return wrapper

        def tmt_decompose(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                work["tmt_letters"] += len(out.tau1) + len(out.tau2)
                return out
            return wrapper

        self._patch_method(og.Matrix, "__matmul__", matmul)
        gen, dec = og.generators, og.decompose
        self._rebind(gen.eval_word, eval_word(gen.eval_word))
        self._rebind(dec.tmt_decompose, tmt_decompose(dec.tmt_decompose))

    # --- reduction -----------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")


def _counted(cell, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)

    return wrapper
