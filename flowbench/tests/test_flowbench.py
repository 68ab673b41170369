"""Tests of the flow benchmark itself: corpus, checks, trace and output."""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.bdd import has_csc_conflict  # noqa: E402
from repro.stg import parse_g  # noqa: E402

from flowbench import corpus, flow, run  # noqa: E402
from flowbench.trace import LAYER_METRICS, Tracer  # noqa: E402

VERDICTS = {"deadlock": {"deadlock", "deadlock-free"},
            "reach": {"reached", "unreachable"},
            "csc": {"conflict", "no-conflict"},
            "consistency": {"consistent", "violation"}}


def pick(items, name, op):
    return next(i for i in items if i.name == name and i.op == op)


def run_items(items):
    checker = flow.Checker()
    run.run_passes(items, checker, flow.execute, passes=1)
    return checker


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_deterministic_per_seed(workload):
    first = corpus.build(workload, 7)
    again = corpus.build(workload, 7)
    other = corpus.build(workload, 8)
    assert [(i.name, i.op, i.text, i.expect) for i in first] == \
        [(i.name, i.op, i.text, i.expect) for i in again]
    assert [(i.name, i.op) for i in first] != [(i.name, i.op) for i in other]
    assert sorted((i.name, i.op) for i in first) == \
        sorted((i.name, i.op) for i in other)


def test_resolve_specs_have_csc_conflicts():
    for item in corpus.build("resolve", 3):
        assert item.expect["csc_conflict"]
        assert has_csc_conflict(parse_g(item.text)), item.name


def test_synthesize_specs_are_csc_clean():
    texts = {i.text: i.name for i in corpus.build("synthesize", 3)}
    assert len(texts) == 21
    for text, name in texts.items():
        assert not has_csc_conflict(parse_g(text)), name


def test_verdict_items_carry_known_answers():
    items = corpus.build("verdicts", 3)
    for item in items:
        assert item.expect["verdict"] in VERDICTS[item.op], item.name
        assert (item.target is not None) == (item.op == "reach")
    answers = {(i.op, i.expect["verdict"]) for i in items}
    assert answers == {(op, v) for op, vs in VERDICTS.items() for v in vs}


def test_ring_conflict_matches_the_symbolic_query():
    for fall in ([3, 0, 1, 2], [0, 3, 2, 1], [2, 3, 0, 1], [1, 0, 2, 3]):
        spec = parse_g(corpus.ring_g(4, fall, "r"))
        assert corpus.ring_conflict([0, 1, 2, 3], fall) == has_csc_conflict(spec)


def test_renaming_keeps_the_paper_answers():
    items = corpus.build("synthesize", 5)
    vme = pick(items, "vme_read_csc", "cg")
    assert "DSr" not in vme.text and vme.expect["literals"] == 9
    checker = run_items([vme, pick(items, "muller_pipeline_4", "gc"),
                         pick(items, "mutex_controller", "sr")])
    assert checker.counts == {"ok": 3, "refused": 0, "failed": 0}
    assert checker.literals > 9


def test_refusals_count_against_ok_share_but_are_not_failures():
    resolve = corpus.build("resolve", 1)
    synth = corpus.build("synthesize", 1)
    checker = run_items([pick(resolve, "ring4.rev", "resolve"),
                         pick(synth, "muller_pipeline_3", "decompose"),
                         pick(resolve, "vme_read", "resolve")])
    assert checker.counts == {"ok": 1, "refused": 2, "failed": 0}
    assert checker.csc_signals == 1


def test_planted_wrong_verdict_fails(monkeypatch):
    items = [pick(corpus.build("verdicts", 1), "vme_read", "csc")]
    assert run_items(items).counts["failed"] == 0
    honest = flow.QUERIES["csc"]

    def flipped(spec):
        verdict = honest(spec)
        verdict.verdict = "no-conflict" if verdict.verdict == "conflict" else "conflict"
        return verdict

    monkeypatch.setitem(flow.QUERIES, "csc", flipped)
    checker = run_items(items)
    assert checker.counts == {"ok": 0, "refused": 0, "failed": 1}


def test_planted_wrong_gate_fails(monkeypatch):
    items = [pick(corpus.build("synthesize", 1), "vme_read_csc", "cg")]
    honest = flow.SYNTHESIZERS["cg"]

    def wrong_gate(spec):
        netlist = honest(spec)
        gate = next(iter(netlist.gates.values()))
        gate.expr = ~gate.expr
        return netlist

    monkeypatch.setitem(flow.SYNTHESIZERS, "cg", wrong_gate)
    assert run_items(items).counts["failed"] == 1


def test_planted_unresolved_spec_fails(monkeypatch):
    items = [pick(corpus.build("resolve", 1), "vme_read", "resolve")]
    monkeypatch.setattr(flow, "resolve_csc", lambda spec: spec)
    assert run_items(items).counts["failed"] == 1


def test_tracer_records_layers_and_restores_the_program():
    items = [pick(corpus.build("resolve", 1), "vme_read", "resolve")]
    original = flow.parse_g
    tracer = Tracer()
    checker = flow.Checker()
    with tracer:
        run.run_passes(items, checker, tracer.wrap("item", flow.execute),
                       passes=1, pause=tracer.paused)
    assert flow.parse_g is original
    values = tracer.metrics(1, 0.0, 0, checker.csc_signals)
    assert sorted(name for name, _ in LAYER_METRICS) == sorted(values)
    assert values["petri.is_live.calls"] > 0
    assert values["analysis.check_implementability.calls"] > 0
    assert values["synth.csc.candidates"] == values["stg.insert_signal.calls"]
    assert 0 < values["synth.csc.useful_ratio"] < 1
    assert values["engine.build.ms"] > 0
    assert values["csc_signals_total"] == 1
    assert values["trace.attributed_share"] > 0.9


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, LAYER_METRICS)])
def test_every_metric_prints_with_its_unit(monkeypatch, tmp_path, trace, names):
    small = corpus.build("verdicts", 1)
    few = [pick(small, "vme_read", "csc"), pick(small, "double_rise", "consistency")]
    monkeypatch.setattr(corpus, "build", lambda workload, seed: few)
    monkeypatch.setattr(run, "import_program", lambda: None)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.5)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "verdicts", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == names
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_host_normalisation_divides_out_a_slow_host():
    reference = run.PROBE_REFERENCE_S
    probes = [reference] * 10 + [2 * reference] * 30
    scaled = run.host_normalised([0.01] * 40, probes)
    assert scaled[0] == pytest.approx(0.01)
    assert scaled[-1] == pytest.approx(0.005)


def test_setup_time_comes_from_a_fresh_interpreter():
    assert 0 < run.measure_setup("resolve", 1, runs=1) < 60


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "flowbench", tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", "resolve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
