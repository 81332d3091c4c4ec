"""Write the benchmark's pinned digests and its run record.

    python3 bench/record.py pin                 # bench/pinned.json from seed-0 reference units
    python3 bench/record.py measure [--runs 10] [--sets 2]   # bench/record.json

``pin`` runs the seed-0 unit of every workload and records the SHA-256 of
each output file. Re-pin only when a change is meant to alter output bytes,
and say why in the change.

``measure`` runs ``run.py`` once per seed 0..runs-1 on every workload, plus
one traced run at seed 0, for each of ``--sets`` sets. For every end-to-end
metric it records the median, the quartiles and the spread (quartile distance
over median). It checks the spread against a third of the metric's bound in
``BENCHMARK.json``, that no later set's median is worse than the first set's
by more than the bound, and that the traced work counts of every set are
identical. The record holds the environment, each workload's size, seed rule
and reason, and the table of which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import run

#: (layer metric, end-to-end metric it should move, workload, expectation).
PREDICTIONS = [
    ("landscape.self_s", "unit_s.p50, units_per_s", "paper", "moves"),
    ("landscape.self_s", "unit_s.p50, units_per_s", "knapsack", "flat: no timed landscape work"),
    ("landscape.kept_ratio", "unit_s.p50", "paper", "rises if fewer landscapes are built to keep 4"),
    ("dynamics.self_s", "unit_s.p50", "paper", "moves: narrow 100-column states"),
    ("dynamics.simulate.calls", "unit_s.p50", "paper", "falls if narrow states are batched"),
    ("dynamics.ns_per_cell_step", "unit_s.p50", "paper", "moves with per-step overhead"),
    ("solver.dp_cells", "unit_s.p50", "knapsack", "moves"),
    ("solver.dp_table_mb.max", "peak_rss_mb", "knapsack", "moves"),
    ("solver.self_s", "unit_s.p50", "knapsack", "moves: DP table fill"),
    ("solver.self_s", "none (under 2% of paper)", "paper", "top-k path: regression guard"),
    ("experiment.self_s", "unit_s.p50", "paper, knapsack", "moves: problem construction, similarity"),
    ("fileio.self_s, fileio.bytes_*", "none (about 2% of paper)", "paper", "regression guard"),
    ("render.self_s, render.svg_bytes", "none (about 2% of paper)", "paper", "regression guard"),
    ("cli.self_s", "none (about 2% of paper)", "paper", "regression guard"),
]


def pin() -> None:
    sys.path.insert(0, str(run.SRC))
    from workloads import workloads

    pinned = {}
    workdir = run.OUT / "pin"
    for name, workload in workloads().items():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        inputs = workload.make_inputs(run.REFERENCE_SEED)
        outputs = workload.run_unit(inputs, workdir)
        problems = workload.check(inputs, outputs, workdir)
        if problems:
            raise SystemExit(f"{name}: reference unit fails its checks: {problems[:5]}")
        pinned[name] = workload.digests(inputs, outputs, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "pinned.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def environment() -> dict:
    import numpy

    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()

    loc = sum(len(p.read_text().splitlines()) for p in sorted((run.SRC / "reserveplan").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git("rev-parse", "HEAD"),
        "src_loc": loc,
    }


def measure(runs: int, sets: int) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in spec["end_to_end"]}
    sys.path.insert(0, str(run.SRC))
    from workloads import workloads

    record = {
        "environment": environment(),
        "command": spec["command"] + ["--seconds", str(seconds)],
        "workloads": {
            w["name"]: {"size": workloads()[w["name"]].size,
                        "seed_rule": f"unit k uses seed + k; runs use seeds 0..{runs - 1}",
                        "why": w["why"]}
            for w in spec["workloads"]
        },
        "predictions": [dict(zip(("layer_metric", "moves", "workload", "expect"), p)) for p in PREDICTIONS],
        "sets": [],
    }
    ok = True
    for s in range(sets):
        result = {}
        for w in spec["workloads"]:
            name = w["name"]
            samples = [bench_once(name, seed, seconds, 0) for seed in range(runs)]
            stats = {m: summary([x[m] for x in samples]) for m in bounds}
            traced = bench_once(name, 0, seconds, 1)
            result[name] = {"end_to_end": stats, "traced_seed0": traced}
            for m, st in stats.items():
                first = record["sets"][0][name]["end_to_end"][m]["median"] if record["sets"] else st["median"]
                drift = st["median"] / first - 1
                steady = m == "setup_s" or st["spread"] < bounds[m] / 3
                ok &= steady and sign[m] * drift <= bounds[m]
                print(f"set {s} {name:<10} {m:<12} median {st['median']:.6g} spread {st['spread']:.4f} "
                      f"(bound {bounds[m]}) drift {drift:+.4f} {'ok' if steady else 'SPREAD'}")
            if record["sets"]:
                before = record["sets"][0][name]["traced_seed0"]
                differ = [k for k in run.COUNT_METRICS if before[k] != traced[k]]
                ok &= not differ
                print(f"set {s} {name:<10} exact counts {'identical' if not differ else differ}")
        record["sets"].append(result)
    record["steady"] = ok
    (run.BENCH / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pin")
    p = sub.add_parser("measure")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    if args.command == "pin":
        pin()
        return 0
    return measure(args.runs, args.sets)


if __name__ == "__main__":
    sys.exit(main())
