"""Tests of the benchmark itself: run with `python -m pytest bench`."""

import dataclasses
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wk  # noqa: E402

TINY_SIZES = {
    "factor_fp": {"tmt": (3, 6), "local": (3, 4)},
    "exact_q": {"tmt": (3, 6), "horrocks": (3, 6)},
    "suite": {},
}


@pytest.fixture(autouse=True)
def _keep_library_modules():
    """The benchmark re-imports orthgen; give other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k == "orthgen" or k.startswith("orthgen.")}
    yield
    for k in [k for k in sys.modules if k == "orthgen" or k.startswith("orthgen.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _tiny(monkeypatch, name):
    wl = dataclasses.replace(
        wk.WORKLOADS[name], pool=8, trace_batch=8, sizes=TINY_SIZES[name], samples=2)
    monkeypatch.setitem(wk.WORKLOADS, name, wl)
    return wl


def _printed(result):
    out = io.StringIO()
    run.report(result, out)
    return out.getvalue().splitlines()


def _assert_metrics_printed(lines, table):
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert [name for name, *_ in table] == list(final["metrics"])
    for name, unit, *_ in table:
        assert final["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and f" {unit} (n=" in line for line in lines)
    return final


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (wl.name, wl.why) for wl in wk.WORKLOADS.values()]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == [row[:3] for row in run.PER_LAYER]


def test_suite_cycle_runs_every_item():
    assert sorted(set(wk.SUITE_CYCLE)) == sorted(wk.SUITE_ITEMS)


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(monkeypatch, name):
    _tiny(monkeypatch, name)
    lines = _printed(run.run(name, seed=3, seconds=0.05, trace=False))
    final = _assert_metrics_printed(lines, run.END_TO_END)
    assert all(m["value"] > 0 for m in final["metrics"].values())
    stamp = json.loads(lines[0].removeprefix("stamp "))
    assert stamp["seed"] == 3 and len(stamp["inputs_sha256"]) == 64


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_tiny_traced_run_prints_every_layer_metric(monkeypatch, tmp_path, name):
    _tiny(monkeypatch, name)
    spans_path = tmp_path / "spans.jsonl"
    lines = _printed(run.run(name, seed=3, seconds=0.05, trace=True, spans_path=str(spans_path)))
    final = _assert_metrics_printed(lines, run.PER_LAYER)
    assert final["metrics"]["trace.accounted_share"]["value"] == pytest.approx(1.0)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert {s["name"] for s in spans if s["parent"] == -1} == {tracing.ROOT}
    assert all(s["start"] <= s["end"] for s in spans)


def test_same_seed_gives_the_same_inputs(monkeypatch):
    wl = _tiny(monkeypatch, "exact_q")
    og = wk.load_library()
    digests = {wk.pool_digest(wk.build_pool(og, wl, random.Random(f"exact_q:{s}"))) for s in (5, 5)}
    other = wk.pool_digest(wk.build_pool(og, wl, random.Random("exact_q:6")))
    assert len(digests) == 1 and other not in digests


def _bump_one_parameter(out: str) -> str:
    obj = json.loads(out)
    word = obj["tau1"] if obj["tau1"]["letters"] else obj["tau2"]
    z = word["letters"][0]["z"]
    z["val"] = (z["val"] + 1) % z["mod"]
    return json.dumps(obj)


@pytest.mark.parametrize("kind", ["tmt", "local"])
def test_changed_letter_parameter_counts_as_failure(monkeypatch, kind):
    wl = _tiny(monkeypatch, "factor_fp")
    og = wk.load_library()
    pool = wk.build_pool(og, wl, random.Random("factor_fp:1"))
    req = next(r for r in pool if r.kind == kind)
    code, out = wk.call(og.cli, req)
    assert wk.safe_check(og, req, code, out).ok

    tally = run.Tally()
    tally.add(wk.safe_check(og, req, code, _bump_one_parameter(out)).ok)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_certificate_verdict_counts_as_failure(monkeypatch):
    wl = _tiny(monkeypatch, "exact_q")
    og = wk.load_library()
    pool = wk.build_pool(og, wl, random.Random("exact_q:1"))
    rejected = next(r for r in pool if r.kind == "horrocks" and not r.expect["accepted"])
    code, out = wk.call(og.cli, rejected)
    assert code == 1 and wk.safe_check(og, rejected, code, out).ok
    accepted = json.dumps(dict(json.loads(out), quotient_elementary=True, accepted=True))
    assert not wk.safe_check(og, rejected, 0, accepted).ok


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
