"""One cold pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload verify48 --seed 1 --pass 0 --trace 0

run.py starts one of these per pass.  It imports groupdom from the
checkout's ``src``, runs the workload's queries in order, checks every
answer and prints one JSON object on stdout.  Query and pass times are
CPU times calibrated to the nominal host speed (pace.py); the raw CPU
and wall times of the pass are printed beside them.

Seed 0 runs the queries in their canonical order on the groups exactly as
the CLI builds them.  Any other seed shuffles the query order and relabels
the elements of every group by a permutation that fixes the identity,
drawn from the seed and the pass number; the answers must not change.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import random
import resource
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import groupdom  # noqa: E402
from groupdom import cli, corpus  # noqa: E402

from pace import Pace  # noqa: E402
from tracing import Tracer, layer_metrics, patched, trace_replacements  # noqa: E402
from workloads import VERIFY_GROUP_COUNT, VERIFY_ORDER_MAX, check, queries  # noqa: E402


def permutation(key: str, label: str, n: int) -> list[int]:
    """perm[old] = new, with perm[0] == 0 so the identity stays 0."""
    rest = list(range(1, n))
    random.Random(f"{key}/{label}").shuffle(rest)
    return [0] + rest


def relabel(G, perm):
    """The same group with element ``i`` renamed ``perm[i]``; ``spec`` and
    ``label`` are kept."""
    p = np.asarray(perm, dtype=np.int64)
    back = np.argsort(p)
    return dataclasses.replace(
        G,
        mul=p[G.mul[np.ix_(back, back)]].astype(G.mul.dtype),
        inv=p[G.inv[back]].astype(G.inv.dtype),
        elem_order=G.elem_order[back].copy(),
        generators=tuple(int(p[g]) for g in G.generators))


@contextmanager
def instrument(seed: int, tracer: Tracer | None = None, pass_no: int = 0):
    """Install relabelling (seed != 0), tracing (tracer given) and a tap
    that collects the sizes of the lattices the CLI enumerates (for pins
    such as |L(S6)| that its document does not carry).  Yields that list
    and restores every patched name on exit."""
    lattice_sizes: list[int] = []
    with patched(trace_replacements(tracer) if tracer else []):
        extra = []
        enumerate_subgroups = cli.enumerate_subgroups

        def tapped(G, *args, **kwargs):
            L = enumerate_subgroups(G, *args, **kwargs)
            lattice_sizes.append(len(L.subgroups))
            return L

        extra.append((cli, "enumerate_subgroups", tapped))
        if seed:
            build_group, build_entry = cli.build_group, corpus.build_entry

            def relabelled(G):
                def renamed():
                    return relabel(G, permutation(f"{seed}/{pass_no}", G.label, G.order))
                return tracer.span("bench", "relabel", renamed) if tracer else renamed()

            def build_group_relabelled(spec, cap=groupdom.DEFAULT_ELEMENT_CAP):
                return relabelled(build_group(spec, cap=cap))

            def build_entry_relabelled(entry, cap=groupdom.DEFAULT_ELEMENT_CAP):
                return relabelled(build_entry(entry, cap=cap))

            extra += [(cli, "build_group", build_group_relabelled),
                      (corpus, "build_entry", build_entry_relabelled)]
        with patched(extra):
            yield lattice_sizes


class QueryFailed(Exception):
    pass


def run_query(command: str, arg: str):
    """The CLI document for one command, or the per-group verify result."""
    if command == "verify":
        return cli._verify_one(arg, groupdom.DEFAULT_ELEMENT_CAP, None)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([command, arg])
    if code != cli.EXIT_OK:
        raise QueryFailed(f"{command} {arg}: exit code {code}")
    return json.loads(buf.getvalue())


def verify_labels() -> list[str]:
    """The groups `groupdom --order-max 48 verify` runs, in its order."""
    return [e.label for e in corpus.corpus() if e.order and e.order <= VERIFY_ORDER_MAX]


def run_pass(workload: str, seed: int, pass_no: int, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    records = []
    pass_problems = []
    faces = 0
    with instrument(seed, tracer, pass_no) as lattice_sizes, Pace() as pace:
        wall0 = time.perf_counter()
        started = time.thread_time()
        labels = verify_labels() if workload == "verify48" else ()
        if workload == "verify48" and len(labels) != VERIFY_GROUP_COUNT[0]:
            pass_problems.append(f"verify48: {len(labels)} groups, expected "
                                 f"{VERIFY_GROUP_COUNT[0]} ({VERIFY_GROUP_COUNT[1]})")
        todo = queries(workload, labels)
        if seed:
            random.Random(f"{seed}/{pass_no}").shuffle(todo)
        for i, (command, arg) in enumerate(todo):
            lattice_sizes.clear()
            t0 = time.thread_time()
            try:
                if tracer:
                    tracer.query = i
                    doc = tracer.span("cli", command, run_query, command, arg)
                else:
                    doc = run_query(command, arg)
                t1 = time.thread_time()
                problems = check(command, arg, doc, lattice_sizes)
            except Exception as exc:  # a query that raises counts as failed
                t1 = time.thread_time()
                problems = [f"{type(exc).__name__}: {exc}"]
                doc = None
            if command == "complex" and doc is not None:
                faces += sum(sum(m.get("f_vector", ()))
                             for m in doc["result"]["models"].values())
            records.append({"query": f"{command} {arg}", "t": (t0, t1), "problems": problems})
        ended = time.thread_time()
        wall1 = time.perf_counter()
    for r in records:
        t0, t1 = r.pop("t")
        r["raw_ms"] = (t1 - t0) * 1000
        r["ms"] = pace.calibrate(t0, t1) * 1000
    total_s = pace.calibrate(started, ended)
    out = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "total_s": total_s,
        "raw_cpu_s": ended - started,
        "raw_wall_s": wall1 - wall0,
        "speed": pace.speed(started, ended),
        "pace_samples": len(pace.samples),
        "queries": records,
        "problems": pass_problems,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "groupdom": groupdom.__file__,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer.spans, faces, total_s / (ended - started))
        out["spans"] = tracer.spans
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.pass_no, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
