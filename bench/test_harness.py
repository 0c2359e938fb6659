"""Tests for the benchmark harness itself.

Run from the root of a checkout: python3 -m pytest -q bench/test_harness.py
"""

import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from sira import mechanism  # noqa: E402
from sira.value_model import ValueFamily  # noqa: E402


# ---------------------------------------------------------------------------
# Span arithmetic


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    intervals = [
        (0.0, 10.0, None),  # root
        (1.0, 3.0, 0),
        (2.0, 5.0, 0),  # overlaps its sibling, as pool threads do
        (8.0, 12.0, 0),  # runs past the parent's end
        (1.5, 2.5, 1),  # grandchild: only its parent loses the time
    ]
    assert spans.self_times(intervals) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([(2.0, 2.5, None)]) == [0.5]


def test_tracer_records_nesting_and_restores_every_binding():
    tracer = spans.Tracer()
    originals = (mechanism.sample_valuations, mechanism.run_sira)
    tracer.install()
    try:
        config = mechanism.AuctionConfig(n_agents=500, p_eps=0.5,
                                         family=ValueFamily.BETA22, seed=3)
        mechanism.run_sira(config)
    finally:
        tracer.uninstall()
    assert (mechanism.sample_valuations, mechanism.run_sira) == originals
    by_name = {s.name: s for s in tracer.spans}
    run_span = by_name["mechanism.run_sira"]
    assert by_name["value_model.sample_valuations"].parent is run_span
    assert by_name["value_model.beta22_ppf"].parent is by_name["value_model.sample_total_values"]
    assert by_name["value_model.sample_total_values"].count == 500
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["mechanism.runs"] == 1
    assert metrics["value_model.draws"] == 1000
    assert 0 <= metrics["mechanism.self_s"] <= run_span.end - run_span.start


# ---------------------------------------------------------------------------
# Op generation


def _fingerprint(op_list):
    return [(op.kind, op.argv("out"), op.edge) for op in op_list]


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_op_list_is_a_function_of_the_workload_seed(workload):
    first = ops.cycle_ops(workload, 7, 0)
    assert _fingerprint(first) == _fingerprint(ops.cycle_ops(workload, 7, 0))
    assert _fingerprint(first) != _fingerprint(ops.cycle_ops(workload, 8, 0))
    assert _fingerprint(first) != _fingerprint(ops.cycle_ops(workload, 7, 1))


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_every_cycle_has_the_same_composition(workload):
    def shape(op):
        p = op.params
        return (op.kind, op.agents, p.get("family"), p.get("pairing"), op.workers, op.edge)

    reference = [shape(op) for op in ops.cycle_ops(workload, 1, 0)]
    for seed, cycle in ((2, 0), (1, 3), (99, 5)):
        assert [shape(op) for op in ops.cycle_ops(workload, seed, cycle)] == reference
    edge = [op.edge for op in ops.cycle_ops(workload, 1, 0)]
    assert sum(edge) * 4 == len(edge)


def test_prices_stay_in_their_windows():
    for workload in ops.WORKLOADS:
        for op in ops.cycle_ops(workload, 5, 0):
            prices = [op.params[k] for k in ("p_eps",) if k in op.params]
            prices += op.params.get("p_eps_list", [])
            if "p_eps_grid" in op.params:
                prices += list(op.params["p_eps_grid"][:2])
            lo, hi = ops.EDGE_WINDOW if op.edge else ops.P_WINDOW
            assert all(lo <= p <= hi for p in prices), op.describe()


def test_no_workload_op_is_a_known_edge_window_refusal():
    # Beta(2, 2) validate-dist and crosscheck exit 3 in the edge window
    # (ROADMAP item 2); a workload must not contain ops that fail by design.
    for workload in ops.WORKLOADS:
        for op in ops.cycle_ops(workload, 3, 0):
            refused = (op.edge and op.params.get("family") == "beta22"
                       and op.kind in ("validate-dist", "crosscheck"))
            assert not refused, op.describe()


# ---------------------------------------------------------------------------
# Output checks


def _flip_digit(text: str, start: int) -> str:
    """Change the first nonzero digit at or after start."""
    match = re.compile(r"[1-9]").search(text, start)
    i = match.start()
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


def _csv_cell_offset(text: str, row: int, column: str) -> int:
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    target = header + 1 + row
    offset = sum(len(line) + 1 for line in lines[:target])
    return offset + sum(len(cell) + 1 for cell in lines[target].split(",")[:col])


_SMALL = {
    "auction": ops.Op("auction", {"n_agents": 300, "p_eps": 0.3, "family": "uniform",
                                  "gamma": 1.0, "seed": 5, "pairing": "perfect"}),
    "repeat": ops.Op("repeat", {"n_agents": 300, "p_eps": 0.4, "family": "beta22",
                                "gamma": 1.0, "seed": 5, "pairing": "independent",
                                "rounds": 3}),
    "reserve": ops.Op("reserve", {"n_agents": 300, "p_eps": 0.2, "family": "beta22",
                                  "gamma": 1.0, "seed": 5}),
    "sweep": ops.Op("sweep", {"family": "uniform", "p_eps_grid": (0.2, 0.8, 4),
                              "n_agents": 500, "gamma": 1.0, "seed": 5}),
    "deviation": ops.Op("deviation", {"family": "beta22", "p_eps": 0.3, "probe_v_d": 0.5,
                                      "probe_v_p": 0.25, "deltas": list(ops.DELTAS),
                                      "n_opponents": 2000, "seed": 5}),
    "validate-dist": ops.Op("validate-dist", {"family": "uniform", "p_eps": 0.5,
                                              "n_samples": 200_000, "bins": 20, "seed": 5}),
    "crosscheck": ops.Op("crosscheck", {"family": "beta22", "v_p_grid": (0.0, 0.5, 20),
                                        "p_eps_list": [0.3, 0.6]}),
}

# The column whose first-row value gets a digit flipped.
_FLIPPED = {
    "auction": "bid",
    "repeat": "premium_value",
    "reserve": "deployment_value",
    "sweep": "participation_rate",
    "deviation": "bid",
    "validate-dist": "empirical_cdf",
    "crosscheck": "quadrature_bid",
}


@pytest.mark.parametrize("kind", sorted(_SMALL))
def test_artifacts_pass_their_checks(kind, tmp_path):
    record = worker.Runner(tmp_path).run(_SMALL[kind])
    assert record["rc"] == 0 and record["check"] is None, record
    assert not run._failed(record)


@pytest.mark.parametrize("kind", sorted(_SMALL))
def test_one_flipped_digit_counts_as_a_failed_op(kind, tmp_path, monkeypatch):
    real_call = worker._call

    def corrupting_call(op, path):
        outcome = real_call(op, path)
        text = path.read_text()
        path.write_text(_flip_digit(text, _csv_cell_offset(text, 0, _FLIPPED[kind])))
        return outcome

    monkeypatch.setattr(worker, "_call", corrupting_call)
    record = worker.Runner(tmp_path).run(_SMALL[kind])
    assert record["rc"] == 0 and record["check"] is not None
    assert run._failed(record) and run._wrong(record)


def test_one_flipped_digit_in_json_counts_as_a_failed_op(tmp_path, monkeypatch):
    op = ops.Op("auction", dict(_SMALL["auction"].params), fmt="json")
    assert worker.Runner(tmp_path).run(op)["check"] is None
    real_call = worker._call

    def corrupting_call(op, path):
        outcome = real_call(op, path)
        text = path.read_text()
        path.write_text(_flip_digit(text, text.index('"raw_bid"')))
        return outcome

    monkeypatch.setattr(worker, "_call", corrupting_call)
    record = worker.Runner(tmp_path).run(op)
    assert record["check"] is not None and run._failed(record)


def test_exit_code_3_is_a_failed_op_not_a_crash(tmp_path):
    op = ops.Op("validate-dist", {"family": "beta22", "p_eps": 0.9995, "n_samples": 1000,
                                  "bins": 20, "seed": 5})
    record = worker.Runner(tmp_path).run(op)
    assert record["rc"] == 3
    assert run._failed(record) and not run._wrong(record)


def test_equilibrium_check_rejects_an_inconsistent_result(tmp_path):
    op = ops.DIGEST_OPS[-1]
    path = tmp_path / "result.json"
    assert worker._call(op, path)[0] == 0
    fields = json.loads(path.read_text())
    checks.check_equilibrium(op, fields)
    with pytest.raises(checks.CheckError):
        checks.check_equilibrium(op, dict(fields, gap=fields["gap"] + 1e-6))
    with pytest.raises(checks.CheckError):
        checks.check_equilibrium(op, dict(fields, seed=fields["seed"] + 1))


def test_an_op_whose_process_dies_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "_call", lambda op, path: os._exit(9))
    record = worker.Runner(tmp_path).run(_SMALL["auction"])
    assert record["rc"] == -1 and run._failed(record) and run._wrong(record)


def test_spans_survive_the_trip_from_the_op_process(tmp_path):
    runner = worker.Runner(tmp_path, traced=True)
    record = runner.run(_SMALL["auction"])
    assert record["check"] is None
    names = {s.name for s in runner.spans}
    assert {"op.auction", "cli.execute", "mechanism.run_sira"} <= names
    execute = next(s for s in runner.spans if s.name == "cli.execute")
    assert execute.parent.name == "op.auction"


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
