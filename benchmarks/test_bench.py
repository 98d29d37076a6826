"""Tests of the benchmark itself (about a minute):

    python3 -m pytest benchmarks -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import hostspeed  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def smoke_results():
    return run.smoke(negative_control=False)


def test_smoke_checks_outputs_and_schema(smoke_results):
    results = smoke_results
    assert set(results) == {(w, t) for w in run.WORKLOAD_NAMES for t in (0, 1)}
    for res in results.values():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


def test_negative_control_counts_wrong_verdicts_as_errors():
    results = run.smoke(negative_control=True)
    for res in results.values():
        assert not res["correct"]
        assert res["failed"] == res["attempted"] >= 1


def test_spans_of_smoke_trace_are_linked(smoke_results):
    rows = (run.OUT / "spans-halfball_2d-s1.jsonl").read_text().splitlines()
    assert json.loads(rows[0]) == ["op", "id", "parent", "name", "start", "end", "leaf_s"]
    spans = [json.loads(r) for r in rows[1:]]
    by_id = {s[1]: s for s in spans}
    roots = [s for s in spans if s[2] is None]
    assert roots and all(s[3] == "op.halfball_2d" for s in roots)
    for op, sid, parent, name, start, end, leaf_s in spans:
        assert start <= end and leaf_s >= 0.0
        if parent is not None:
            assert by_id[parent][0] == op
            assert by_id[parent][4] <= start and end <= by_id[parent][5]
    assert any(s[3] == "minimize.minimize_field" for s in spans)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([float(x) for x in range(30)]) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail_percentile([float(x) for x in range(20)]) == (9.0, 50.0, 10)
    # too few samples for 10 beyond a percentile above the median
    assert run.tail_percentile([float(x) for x in range(11)]) == (9.0, 90.0, 1)
    assert run.tail_percentile([2.0]) == (2.0, 100.0, 0)


def test_self_time_subtracts_child_spans_and_leaves():
    tr = tracing.Tracer()
    # op 0: root [0, 10]; solve [1, 9] with 2 s of integrand leaves;
    # a mesh build inside the solve [2, 3]
    tr.spans = [
        (0, 3, 2, "meshing.halfball_mesh", 2.0, 3.0, 0.0),
        (0, 2, 1, "minimize.minimize_field", 1.0, 9.0, 2.0),
        (0, 1, None, "op.test", 0.0, 10.0, 0.0),
    ]
    tr.leaf_s["integrands"] = 2.0
    m = tracing.layer_metrics(tr, passes=2)
    assert m["op.busy_s"] == 5.0
    assert m["minimize.busy_s"] == 4.0
    assert m["minimize.self_s"] == 2.5  # (8 - 1 - 2) / 2
    assert m["meshing.busy_s"] == 0.5
    assert m["integrands.busy_s"] == 1.0
    assert m["minimize.share"] == 0.8


def test_host_speed_scaling_uses_the_mean_of_both_probes():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(3.0, [0.5 * nominal, 1.5 * nominal]) == 3.0
    assert hostspeed.scale(1.0, [2.0 * nominal, 3.0 * nominal, 1.0 * nominal]) == 0.5
    assert hostspeed.probe(repeats=1) > 0.0


def test_stopwatch_samples_inside_an_interval_and_leaves_its_time_out():
    watch = hostspeed.Stopwatch()
    watch.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5 * hostspeed.SAMPLE_S:
        sum(range(1000))
    got = watch.stop()
    assert got["probes"] >= 5  # before, after and at least three inside
    assert 0.0 < got["wall_s"] < time.perf_counter() - t0
    assert got["s"] > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
