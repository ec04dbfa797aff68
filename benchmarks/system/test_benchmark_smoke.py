"""Smoke test of the system benchmark (outside ``testpaths``; run explicitly):

    python3 -m pytest benchmarks/system/test_benchmark_smoke.py -q

Runs the whole suite in ``--quick`` mode once and checks the shape of what it
emits: the result file against BENCHMARK.json, and the span files for
well-formed nesting.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
GATED = ["fresh_full", "generations_spill", "node_plane_replay"]
WORKLOADS = GATED + ["process_planes"]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("sysbench") / "result.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(out)],
        check=True, timeout=300,
    )
    with open(out) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_file_is_within_the_limits(contract):
    assert sorted(contract) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert [workload["name"] for workload in contract["workloads"]] == GATED
    assert len(contract["end_to_end"]) <= 16 and len(contract["per_layer"]) <= 128
    names = [metric["name"] for metric in contract["end_to_end"] + contract["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = [metric for metric in contract["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < metric["bound"] <= 0.25 for metric in contract["end_to_end"])


def test_every_workload_reports_every_declared_metric(suite, contract):
    assert list(suite["workloads"]) == WORKLOADS
    for name, entry in suite["workloads"].items():
        assert entry["failures"] == [], name
        for key in ("end_to_end", "per_layer"):
            declared = [metric["name"] for metric in contract[key]]
            assert list(entry[key]) == declared, (name, key)
            for stats in entry[key].values():
                assert set(stats) == {"value", "median", "q1", "q3", "min", "max", "n"}
                assert stats["min"] <= stats["value"] <= stats["max"] and stats["n"] >= 1
        assert all(stats["value"] > 0 for stats in entry["end_to_end"].values()), name
    for fact in ("cpu_count", "sched_getaffinity", "python", "numpy", "zlib", "calibration_s"):
        assert fact in suite["host"]
    assert isinstance(suite["noisy"], bool)


def test_layers_separate_as_designed(suite):
    layer = {name: entry["per_layer"] for name, entry in suite["workloads"].items()}
    for name in WORKLOADS:
        assert layer[name]["trace.unresolved_targets"]["median"] == 0
        assert layer[name]["trace.coverage"]["median"] > 0.9, name
    assert layer["node_plane_replay"]["chunking.self_s"]["max"] == 0
    assert layer["node_plane_replay"]["fingerprint.self_s"]["max"] == 0
    assert layer["node_plane_replay"]["trace.ingest_node_plane_share"]["median"] > 0.8
    assert layer["fresh_full"]["trace.ingest_front_end_share"]["median"] > 0.6
    for name in WORKLOADS:
        process_only = name == "process_planes"
        for metric in ("parallel.self_s", "transport.self_s"):
            assert (layer[name][metric]["median"] > 0) == process_only, (name, metric)
        durable_only = name == "generations_spill"
        for metric in ("storage.journal_replay_s", "cluster.replication_sync_s"):
            assert (layer[name][metric]["median"] > 0) == durable_only, (name, metric)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_time_is_never_negative(suite, workload):
    spans = []
    with open(os.path.join(HERE, "results", f"trace-{workload}.jsonl")) as handle:
        for line in handle:
            spans.append(json.loads(line))
    assert spans and spans[0]["name"] == "bench.round" and spans[0]["parent"] == -1
    children = [0] * len(spans)
    for span in spans:
        assert NAME.match(span["name"]) and span["end_ns"] >= span["start_ns"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]
            children[span["parent"]] += span["end_ns"] - span["start_ns"]
    for span, covered in zip(spans, children):
        assert span["end_ns"] - span["start_ns"] - covered >= 0, span
