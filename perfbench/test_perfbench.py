"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The driver's queries must return exactly what ``groupdom.cli.main``
prints (apart from ``timing_ms``), with tracing on or off; relabelling
must leave every answer unchanged; and the checks must catch wrong
answers.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import worker
from groupdom import build_group, cli, corpus, parse_group_spec
from pace import NOMINAL_S, Pace
from tracing import Tracer, layer_metrics, self_times
from workloads import VERIFY_ORDER_MAX, check


@pytest.fixture(autouse=True)
def fresh_corpus():
    """Relabelled groups must not leak through the corpus caches."""
    caches = (corpus._GROUPS, corpus._LATTICES, corpus._GAMMAS)
    for c in caches:
        c.clear()
    yield
    for c in caches:
        c.clear()


def cli_doc(argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    doc = json.loads(buf.getvalue())
    doc.pop("timing_ms")
    return doc


def driver_doc(command, arg, seed=0, tracer=None) -> dict:
    with worker.instrument(seed, tracer):
        doc = worker.run_query(command, arg)
    if command != "verify":
        doc.pop("timing_ms")
    return doc


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("command,arg", [("gamma", "D200"), ("sum", "D36"),
                                         ("burnside", "S4"), ("complex", "S4")])
def test_query_matches_cli(command, arg, traced):
    tracer = Tracer() if traced else None
    if traced:
        doc = tracer.span("cli", command, driver_doc, command, arg, tracer=tracer)
    else:
        doc = driver_doc(command, arg)
    assert doc == cli_doc([command, arg])
    if traced:
        assert tracer.spans[0][3:5] == ["cli", command]


def test_verify48_matches_cli():
    tracer = Tracer()
    with worker.instrument(0, tracer):
        groups = [worker.run_query("verify", label) for label in worker.verify_labels()]
    expected = cli_doc(["--order-max", str(VERIFY_ORDER_MAX), "verify"])["result"]
    assert expected["violations"] == []
    assert groups == expected["groups"]
    assert all(check("verify", g["group"], g) == [] for g in groups)


def invariants(command, doc) -> object:
    """The part of an answer that does not depend on element labels."""
    r = doc["result"]
    if command == "gamma":
        return r["gamma"]
    if command == "sum":
        return r["sum_number"]
    if command == "subgroups":
        return r["subgroup_count"], r["by_order"], r["atom_count"], r["coatom_count"]
    if command == "burnside":
        return (sorted(r["class_sizes"]), sorted(v for row in r["table_of_marks"] for v in row),
                r["index_bound"]["bound"], r["characterization"]["biconditional_holds"])
    if command == "complex":
        return {k: (m["betti"], m["f_vector"]) for k, m in r["models"].items()}
    raise ValueError(command)


@pytest.mark.parametrize("command", ["gamma", "sum", "subgroups", "burnside", "complex"])
def test_relabelling_keeps_answers_on_s4(command):
    base = invariants(command, driver_doc(command, "S4"))
    for seed in (1, 2, 3):
        assert invariants(command, driver_doc(command, "S4", seed=seed)) == base


def test_relabel_is_an_isomorphism():
    G = build_group(parse_group_spec("S4"))
    perm = worker.permutation("7/0", G.label, G.order)
    H = worker.relabel(G, perm)
    p = np.array(perm)
    assert perm[0] == 0 and sorted(perm) == list(range(G.order))
    assert not np.array_equal(H.mul, G.mul)
    assert np.array_equal(H.mul[np.ix_(p, p)], p[G.mul])
    assert np.array_equal(H.inv[p], p[G.inv])
    assert np.array_equal(H.elem_order[p], G.elem_order)
    assert H.spec == G.spec and H.label == G.label


def test_verify_relabelled_keeps_gammas():
    labels = ["S4/V4", "D12", "C2xC2xC2", "Q8", "A4"]
    with worker.instrument(5):
        groups = [worker.run_query("verify", label) for label in labels]
    assert [check("verify", g["group"], g) for g in groups] == [[]] * len(labels)


def test_checks_catch_wrong_answers():
    doc = {"result": {"sum_number": 12, "optimal": True, "witness": []}}
    assert check("sum", "S6", doc, [1455])
    doc["result"]["sum_number"] = 13
    assert check("sum", "S6", doc, [1455]) == []
    assert check("sum", "S6", doc, [1454])
    doc["result"]["optimal"] = False
    assert check("sum", "S6", doc, [1455])
    good = cli_doc(["complex", "S4"])
    assert check("complex", "S4", good) == []
    good["result"]["models"]["order"]["betti"] = [0, 11, 0]
    assert check("complex", "S4", good)
    group = {"group": "D8", "gamma": 3, "reports": [], "expected_checks": []}
    assert check("verify", "D8", group)


def test_spans_attribute_nested_calls_to_their_layer():
    tracer = Tracer()
    with worker.instrument(0, tracer):
        for label in ("S4/V4", "D12"):
            tracer.span("cli", "verify", worker.run_query, "verify", label)
    spans = tracer.spans
    assert all(s[1] is None or s[1] < s[0] for s in spans)
    assert min(self_times(spans)) > -1e-6
    parent = {s[0]: spans[s[1]] if s[1] is not None else None for s in spans}
    pairs = {(parent[s[0]][3], parent[s[0]][4], s[3], s[4]) for s in spans if parent[s[0]]}
    assert ("formulas", "verify_bounds", "lattice", "enumerate") in pairs
    assert ("formulas", "verify_bounds", "groups", "quotient") in pairs
    assert ("corpus", "get_lattice", "lattice", "enumerate") in pairs
    assert ("corpus", "get_gamma", "domination", "gamma") in pairs
    assert ("corpus", "get_group", "lattice", "classes") in pairs


def test_run_refuses_a_checkout_without_sources(tmp_path):
    here = worker.HERE
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload", "verify48",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    import run
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    fake = [{"total_s": 1.0, "raw_cpu_s": 1.1, "raw_wall_s": 1.2, "speed": 0.9,
             "rss_mb": 30.0, "trace": t, "layers": layer_metrics([], 0),
             "queries": [{"query": "q", "ms": 1.0}]} for t in (0, 1)]
    e2e, printed, _ = run.end_to_end(fake[:1], [0.25])
    assert set(printed) == {"query_p50_ms", "raw_cpu_s", "raw_wall_s", "raw_setup_cpu_s",
                            "host_speed"}
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers, _ = run.per_layer(fake)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_pace_takes_out_sampling_and_scales_by_speed():
    with Pace() as pace:
        t0 = time.thread_time()
        x = 0
        for i in range(5_000_000):
            x += i * i
        t1 = time.thread_time()
    assert len(pace.samples) >= 3
    inside = pace.handler_s(t0, t1)
    assert 0 < inside < t1 - t0
    speed = pace.speed(t0, t1)
    assert speed == pytest.approx(sum(NOMINAL_S / k for _, _, k in pace.samples)
                                  / len(pace.samples))
    assert pace.calibrate(t0, t1) == pytest.approx((t1 - t0 - inside) * speed)
