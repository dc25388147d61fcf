"""End-to-end and layer-by-layer benchmark of orthgen.

    python3 bench/run.py --workload factor_fp --seed 1 --seconds 20 --trace 0
    python3 -m pytest bench        # the benchmark's own tests

One process, one thread, one closed-loop client.  Each request calls
orthgen.cli.main(argv) in-process with its JSON payload on a swapped
stdin, so it pays parse, compute, --check and serialize as a CLI user
does.  Set-up (a fresh import of orthgen, building and serializing the
seeded request pool, one warm-up request) is repeated SETUP_ROUNDS times
and reported as its median.  The timed loop cycles through the pool
until the requests have been busy for --seconds; every answer is checked
outside the timed region.

Times are reported at a nominal machine speed.  On a shared machine the
speed of one core drifts by +-20% within a second, which would swamp
any change to orthgen.  So each request (and each set-up round) is
bracketed by runs of a fixed pure-Python reference kernel, and a
measured time t is reported as t * REF_NOMINAL_S / r, where r is the
mean reference time just before and just after it.  The stamp line also
gives the raw wall-clock figures.

--trace 0 prints the end-to-end metrics.  --trace 1 replays the first
trace_batch requests of the pool in whole passes three ways: untraced,
with spans on every layer boundary, and once with counters, and prints
the per-layer metrics.  Every metric line states its unit and sample
count; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wk  # noqa: E402

SETUP_ROUNDS = 3

# The reference kernel: a dense 32x32 integer matrix product in pure
# Python, the same kind of work as orthgen's dense letter products.
# REF_NOMINAL_S is its time at the nominal speed that times are scaled to
# (roughly its median on a 2-vCPU Xeon VM under Python 3.11).
REF_SIZE = 32
REF_NOMINAL_S = 0.0025
# Reference runs on each side of a set-up round, which lasts seconds.
SETUP_REF_RUNS = 5
_REF_A = [[(7 * i + 3 * j) % 11 for j in range(REF_SIZE)] for i in range(REF_SIZE)]
_REF_B = [[(5 * i + j * j) % 13 for j in range(REF_SIZE)] for i in range(REF_SIZE)]

# (name, unit, better, bound): the bound is the share of the parent's
# median by which the metric may worsen before a change is a regression.
# Over ten seeds the quartile spread of each timing was 3-7% on a 2-vCPU
# VM, and each bound is at least three times that.  The error rate is the
# result's failed/attempted (0 at a correct commit, so it cannot carry a
# relative bound); letters per matrix exist only where a request
# decomposes, so they are a per-layer metric.
END_TO_END = (
    ("req_per_s", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_FP = "factor_fp"
_Q = "exact_q"
_FAST = f"req_per_s, latency_p50_ms on {_FP}; less on {_Q}, little on suite"
_SUITE = "req_per_s on suite only"

# (name, unit, better, the end-to-end metric and workload it should move).
# Per-request values are means over the traced requests.
PER_LAYER = (
    ("quadratic_space.matmul.calls", "calls/req", "lower", _FAST),
    ("quadratic_space.matmul.self_s", "s/req", "lower", _FAST),
    ("quadratic_space.matmul.rhs_density", "share", "higher", _FAST),
    ("quadratic_space.matmul.rhs_entries", "entries/req", "lower", _FAST),
    ("quadratic_space.is_orthogonal.calls", "calls/req", "lower", _FAST),
    ("quadratic_space.is_orthogonal.self_s", "s/req", "lower", _FAST),
    ("quadratic_space.orthogonal_inverse.self_s", "s/req", "lower", _FAST),
    ("quadratic_space.self_s", "s/req", "lower", _FAST),
    ("generators.letter_matrix.calls", "calls/req", "lower", _FAST),
    ("generators.letter_matrix.self_s", "s/req", "lower", _FAST),
    ("generators.eval_word.calls", "calls/req", "lower", _FAST),
    ("generators.eval_word.self_s", "s/req", "lower", _FAST),
    ("generators.eval_word.letters", "letters/req", "lower", _FAST),
    ("generators.letters_applied", "letters/req", "lower", _FAST),
    ("generators.ring_mul_per_letter", "muls/letter", "lower", _FAST),
    ("generators.self_s", "s/req", "lower", _FAST),
    ("rings.mul.calls", "calls/req", "lower", f"req_per_s, latency_p90_ms on {_Q}"),
    ("rings.add.calls", "calls/req", "lower", f"req_per_s, latency_p90_ms on {_Q}"),
    ("rings.inv.calls", "calls/req", "lower", f"req_per_s on {_Q}"),
    ("rings.is_zero.calls", "calls/req", "lower", f"req_per_s on {_FP} (dense-product waste)"),
    ("rings.max_entry_bits", "bits", "lower", f"latency_p90_ms on {_Q}"),
    ("cli.parse.self_s", "s/req", "lower", f"latency_p90_ms on {_Q}"),
    ("cli.serialize.self_s", "s/req", "lower", f"latency_p90_ms on {_Q}"),
    ("cli.output_bytes", "B/req", "lower", f"latency_p90_ms on {_Q}"),
    ("cli.self_s", "s/req", "lower", "req_per_s on suite"),
    ("decompose.tmt_decompose.self_s", "s/req", "lower", f"req_per_s, latency_p50_ms on {_FP}"),
    ("decompose.local_decompose.self_s", "s/req", "lower", f"req_per_s on {_FP}"),
    ("decompose.recompose.self_s", "s/req", "lower", f"req_per_s, latency_p50_ms on {_FP}"),
    ("decompose.check_horrocks_instance.self_s", "s/req", "lower", f"req_per_s on {_Q}"),
    ("decompose.letters_per_matrix", "letters", "lower", f"req_per_s on {_FP} and {_Q}"),
    ("decompose.self_s", "s/req", "lower", f"req_per_s on {_FP}"),
    ("transvections.transvection_matrix.calls", "calls/req", "lower", _SUITE),
    ("transvections.transvection_matrix.self_s", "s/req", "lower", _SUITE),
    ("transvections.transvection_laws.self_s", "s/req", "lower", _SUITE),
    ("transvections.self_s", "s/req", "lower", _SUITE),
) + tuple(
    (f"identity_suite.{item}.s", "s/req", "lower", _SUITE) for item in wk.SUITE_ITEMS
) + (
    ("identity_suite.self_s", "s/req", "lower", _SUITE),
    ("trace.request_s", "s/req", "lower", "every end-to-end metric of the traced workload"),
    ("trace.remainder_s", "s/req", "lower", "none: request time outside every layer span"),
    ("trace.accounted_share", "share", "higher", "none: layer self times plus remainder over request time"),
    ("trace.untraced_req_per_s", "1/s", "higher", "req_per_s of the traced workload"),
    ("trace.traced_req_per_s", "1/s", "higher", "none: throughput with spans on"),
    ("trace.req_per_s_ratio", "ratio", "higher", "none: traced over untraced throughput"),
)

# --- stamps -------------------------------------------------------------------


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "orthgen")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# --- machine speed ------------------------------------------------------------------


def reference_kernel() -> float:
    """Seconds taken by one run of the fixed reference kernel."""
    start = time.perf_counter()
    for row in _REF_A:
        acc = [0] * REF_SIZE
        for x, brow in zip(row, _REF_B):
            if x:
                for j in range(REF_SIZE):
                    acc[j] = (acc[j] + x * brow[j]) % 1000003
    return time.perf_counter() - start


def at_nominal_speed(times, refs):
    """Scale each time by REF_NOMINAL_S over the reference time measured with it."""
    return [t * REF_NOMINAL_S / r for t, r in zip(times, refs)]


def _bracketed(fn, runs: int = 1):
    """(fn(), mean of the median reference times just before and after it)."""
    before = statistics.median(reference_kernel() for _ in range(runs))
    out = fn()
    after = statistics.median(reference_kernel() for _ in range(runs))
    return out, (before + after) / 2


# --- running requests -----------------------------------------------------------


class Tally:
    """Requests attempted and failed, with the first failure's traceback shown."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            if self.failed == 0 and why:
                print(why, file=sys.stderr)
            self.failed += 1


def _timed_call(og, req, before=None, after=None):
    """(code, out, seconds, traceback or ''); a raising request is a failed one."""
    start = time.perf_counter()
    rec = before() if before else None
    try:
        code, out = wk.call(og.cli, req)
        why = ""
    except Exception:  # the request boundary keeps running and reports
        code, out, why = None, "", traceback.format_exc()
    finally:
        if after:
            after(rec)
    return code, out, time.perf_counter() - start, why


def set_up(wl, seed: int):
    """Import orthgen, build the pool and answer one request, SETUP_ROUNDS times."""
    times, refs, digest = [], [], None

    def one_round():
        start = time.perf_counter()
        og = wk.load_library()
        pool = wk.build_pool(og, wl, random.Random(f"{wl.name}:{seed}"))
        code, out, _, _ = _timed_call(og, pool[0])
        return og, pool, code, out, time.perf_counter() - start

    for _ in range(SETUP_ROUNDS):
        og = pool = None  # let the previous round's pool go before building the next
        (og, pool, code, out, seconds), ref = _bracketed(one_round, SETUP_REF_RUNS)
        warm = wk.safe_check(og, pool[0], code, out)
        times.append(seconds)
        refs.append(ref)
        now = wk.pool_digest(pool)
        if digest not in (None, now):
            raise RuntimeError("set-up rounds generated different inputs from one seed")
        digest = now
    return og, pool, digest, times, refs, warm.ok


def measure(og, pool, seconds: float, tally: Tally):
    """Closed loop over the pool until the requests were busy for `seconds`.

    Returns the raw request times and the reference time around each.
    """
    latencies, refs, busy = [], [], 0.0
    while busy < seconds or len(latencies) < 2:
        req = pool[len(latencies) % len(pool)]
        (code, out, dt, why), ref = _bracketed(lambda: _timed_call(og, req))
        latencies.append(dt)
        refs.append(ref)
        busy += dt
        tally.add(why == "" and wk.safe_check(og, req, code, out).ok, why)
    return latencies, refs


def _passes(og, batch, seconds: float, before=None, after=None):
    """Whole passes over batch until busy for `seconds`; answers are kept, not checked.

    Returns (request, code, out, raw seconds, traceback) per request and
    the nominal-speed time of each.
    """
    runs, refs, busy = [], [], 0.0
    while busy < seconds or not runs:
        for rid, req in enumerate(batch, start=len(runs)):
            begin = before and (lambda rid=rid: before(rid))
            (code, out, dt, why), ref = _bracketed(lambda: _timed_call(og, req, begin, after))
            runs.append((req, code, out, dt, why))
            refs.append(ref)
            busy += dt
    return runs, at_nominal_speed([r[3] for r in runs], refs)


def _check_all(og, runs, tally: Tally):
    checked = []
    for req, code, out, _, why in runs:
        c = wk.safe_check(og, req, code, out)
        tally.add(why == "" and c.ok, why)
        checked.append(c)
    return checked


# --- metrics ------------------------------------------------------------------


def _percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _latency_values(times, setup_times):
    n = len(times)
    return {
        "req_per_s": (n / sum(times), n),
        "latency_p50_ms": (1000 * statistics.median(times), n),
        "latency_p90_ms": (1000 * _percentile(times, 90), n),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
    }


def end_to_end(wl, seed: int, seconds: float):
    og, pool, digest, setup_times, setup_refs, warm_ok = set_up(wl, seed)
    tally = Tally()
    raw, refs = measure(og, pool, seconds, tally)
    nominal_setup = [t * REF_NOMINAL_S / r for t, r in zip(setup_times, setup_refs)]
    values = _latency_values(at_nominal_speed(raw, refs), nominal_setup)
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    wall = {k: v for k, (v, _) in _latency_values(raw, setup_times).items()}
    wall["reference_kernel_s"] = statistics.median(refs)
    return values, tally, digest, warm_ok, wall


def per_layer(wl, seed: int, seconds: float, spans_path=None):
    og, pool, digest, _, _, warm_ok = set_up(wl, seed)
    batch = pool[: wl.trace_batch]
    tally = Tally()

    plain, plain_times = _passes(og, batch, seconds / 3)
    _check_all(og, plain, tally)

    spans = tracing.Tracer(og)
    spans.install_spans()

    def before(rid):
        spans.request = rid
        return spans.begin(tracing.ROOT)

    try:
        traced, traced_times = _passes(og, batch, seconds / 3, before, spans.end)
    finally:
        spans.uninstall()
    checked = _check_all(og, traced, tally)

    counters = tracing.Tracer(og)
    counters.install_counters()
    try:
        counted, _ = _passes(og, batch, 0)
    finally:
        counters.uninstall()
    _check_all(og, counted, tally)

    if spans_path:
        spans.dump(spans_path)

    scale = [nominal / r[3] for nominal, r in zip(traced_times, traced)]
    values, accounted = _layer_values(spans, counters, traced, scale, checked, len(batch))
    values["trace.untraced_req_per_s"] = len(plain) / sum(plain_times)
    values["trace.traced_req_per_s"] = len(traced) / sum(traced_times)
    values["trace.req_per_s_ratio"] = values["trace.traced_req_per_s"] / values["trace.untraced_req_per_s"]
    samples = {name: len(counted) if name in _COUNTED else len(traced) for name in values}
    samples["trace.untraced_req_per_s"] = len(plain)
    wall = {"trace.traced_req_per_s": len(traced) / sum(r[3] for r in traced)}
    return {k: (v, samples[k]) for k, v in values.items()}, tally, digest, warm_ok and accounted, wall


# Metrics taken from the single counted pass rather than the span passes.
_COUNTED = tuple(f"rings.{op}.calls" for op in tracing.RING_OPS) + (
    "quadratic_space.matmul.rhs_density",
    "quadratic_space.matmul.rhs_entries",
    "generators.eval_word.letters",
    "generators.letters_applied",
    "generators.ring_mul_per_letter",
)


def _layer_values(spans, counters, traced, scale, checked, batch_len: int):
    """Per-request layer metrics and whether self times add up to request time.

    Span times of request i are scaled to nominal speed by scale[i].
    """
    reqs = len(traced)
    self_s, calls = defaultdict(float), Counter()
    request_s = 0.0
    for (name, start, end, _, rid), own in zip(spans.spans, spans.self_times()):
        self_s[name] += own * scale[rid]
        calls[name] += 1
        if name == tracing.ROOT:
            request_s += (end - start) * scale[rid]
    layer_self = defaultdict(float)
    for name, own in self_s.items():
        layer_self[name.split(".")[0]] += own
    remainder = self_s[tracing.ROOT]
    accounted = sum(layer_self[layer] for layer in tracing.LAYERS) + remainder

    def group(names):
        return sum(self_s[n] for n in names) / reqs

    v = {
        "quadratic_space.matmul.calls": calls[tracing.MATMUL] / reqs,
        "quadratic_space.matmul.self_s": self_s[tracing.MATMUL] / reqs,
        "quadratic_space.is_orthogonal.calls": calls["quadratic_space.is_orthogonal"] / reqs,
        "quadratic_space.is_orthogonal.self_s": self_s["quadratic_space.is_orthogonal"] / reqs,
        "quadratic_space.orthogonal_inverse.self_s": self_s["quadratic_space.orthogonal_inverse"] / reqs,
        "generators.letter_matrix.calls": calls["generators.letter_matrix"] / reqs,
        "generators.letter_matrix.self_s": self_s["generators.letter_matrix"] / reqs,
        "generators.eval_word.calls": calls["generators.eval_word"] / reqs,
        "generators.eval_word.self_s": self_s["generators.eval_word"] / reqs,
        "cli.parse.self_s": group(tracing.PARSE),
        "cli.serialize.self_s": group(tracing.SERIALIZE),
        "cli.output_bytes": sum(len(out.encode()) for _, _, out, _, _ in traced) / reqs,
        "decompose.tmt_decompose.self_s": self_s["decompose.tmt_decompose"] / reqs,
        "decompose.local_decompose.self_s": self_s["decompose.local_decompose"] / reqs,
        "decompose.recompose.self_s": group(tracing.RECOMPOSE),
        "decompose.check_horrocks_instance.self_s": self_s["decompose.check_horrocks_instance"] / reqs,
        "transvections.transvection_matrix.calls": calls["transvections.transvection_matrix"] / reqs,
        "transvections.transvection_matrix.self_s": self_s["transvections.transvection_matrix"] / reqs,
        "transvections.transvection_laws.self_s": self_s["transvections.transvection_laws"] / reqs,
        "trace.request_s": request_s / reqs,
        "trace.remainder_s": remainder / reqs,
        "trace.accounted_share": accounted / request_s,
    }
    for layer in tracing.LAYERS[1:]:
        v[f"{layer}.self_s"] = layer_self[layer] / reqs
    per_item = Counter(req.argv[2] for req, *_ in traced if req.kind == "identities")
    item_s = defaultdict(float)
    for (rid, item), seconds in spans.suite_s.items():
        item_s[item] += seconds * scale[rid]
    for item in wk.SUITE_ITEMS:
        v[f"identity_suite.{item}.s"] = item_s[item] / max(per_item[item], 1)

    for op in tracing.RING_OPS:
        v[f"rings.{op}.calls"] = counters.counts[op][0] / batch_len
    work = counters.work
    letters = [c.letters for c in checked if c.letters is not None]
    v["rings.max_entry_bits"] = max((c.bits for c in checked), default=0)
    v["decompose.letters_per_matrix"] = sum(letters) / len(letters) if letters else 0.0
    v["quadratic_space.matmul.rhs_entries"] = work["rhs_entries"] / batch_len
    v["quadratic_space.matmul.rhs_density"] = work["rhs_nonzero"] / max(work["rhs_entries"], 1)
    v["generators.eval_word.letters"] = work["eval_letters"] / batch_len
    v["generators.letters_applied"] = (work["eval_letters"] + work["tmt_letters"]) / batch_len
    v["generators.ring_mul_per_letter"] = work["eval_muls"] / max(work["eval_letters"], 1)
    return v, abs(accounted - request_s) <= 1e-9 * max(request_s, 1.0)


# --- entry point ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    wl = wk.WORKLOADS[workload]
    if trace:
        table = PER_LAYER
        values, tally, digest, ok, wall = per_layer(wl, seed, seconds, spans_path)
    else:
        table = END_TO_END
        values, tally, digest, ok, wall = end_to_end(wl, seed, seconds)
    stamp = {
        "python": sys.version.split()[0],
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": digest,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "wall_clock": wall,
        "samples": {name: values[name][1] for name, *_ in table},
    }
    return {
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit, *_ in table},
        "stamp": stamp,
    }


def report(result: dict, out=None) -> None:
    out = out or sys.stdout
    stamp = result["stamp"]
    print("stamp " + json.dumps({k: v for k, v in stamp.items() if k != "samples"}, sort_keys=True), file=out)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={stamp['samples'][name]})", file=out)
    print(f"error_rate = {stamp['error_rate']:.6g} ({result['failed']} of {result['attempted']} requests)", file=out)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wk.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, write every span here as JSON lines")
    args = parser.parse_args(argv)
    try:
        import orthgen  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import orthgen from {SRC}: {exc}", file=sys.stderr)
        return 2
    report(run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
