"""coxcent benchmark: time the tables users wait for, and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every timed unit of work is a fresh,
single-threaded child process (child.py), started one at a time with the
absolute `src` path and a fixed PYTHONHASHSEED.  The seed only shuffles the
order of a workload's types; every output is checked against golden.json
(recorded with --write-golden when the benchmark was added) and against the
reference rows.

Untraced (--trace 0), a run first starts SETUP_RUNS set-up children
(interpreter start, `import coxcent.cli`, every workload CoxeterGroup with
its order) and reports their median as setup_s; then it runs passes over
the workload while another pass still fits in --seconds, and reports the
median wall_s (child start to last output checked) and peak_rss_mb.
Traced (--trace 1), it runs one untraced and one traced pass and reports
the per-layer metrics of BENCHMARK.json (see tracing.py).

The last line of stdout is the JSON result; the lines before it name every
metric with its unit, and failed_ratio.  The exit code is 0 when every
output is right, 1 when one is wrong, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
SETUP_RUNS = 3
DEADLINE_S = 170  # a run must end within 180 s

ALL_SMALL = (  # the CLI's `verify --all` set
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 8)]
    + [("I", m) for m in (5, 7, 8, 12)]
    + [("H", 3), ("H", 4), ("F", 4), ("E", 6), ("E", 7)]
)

# workload -> (what a pass does per type, the types).  verify_all is the
# everyday command; its time goes to the projections and centralizers.
# classical_census is enumeration alone, at ranks where stored orbits are
# large.  theorem_suite adds the check suite, which builds each class's data
# a second time.  E8 (`verify --large`, ~47 s and ~200 MB) is left out: it
# would double the time of every run, and classical_census already covers
# large-orbit enumeration.
WORKLOADS = {
    "verify_all": ("verify", ALL_SMALL),
    "classical_census": ("census", [("A", 11), ("B", 9)]),
    "theorem_suite": ("theorems", [("E", 6), ("E", 7), ("F", 4), ("H", 4), ("D", 7)]),
    # tiny types for the self-test; not a timed workload
    "smoke": ("verify", [("A", 3), ("B", 3), ("H", 3)]),
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child(spec: dict, deadline: float) -> dict:
    """Run one child to completion by the CLOCK_MONOTONIC `deadline`; adds
    `wall`, from its start to `t_done`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(BENCH / "child.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {spec['mode']} child ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"a {spec['mode']} child failed:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.splitlines()[-1])
    if Path(report["coxcent"]).resolve().parent.parent != SRC:
        raise BenchError(f"imported {report['coxcent']}, not the checkout's src")
    report["wall"] = report["t_done"] - start
    return report


def environment() -> str:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "coxcent").rglob("*.py")
    )
    nproc = len(os.sched_getaffinity(0))
    return f"python {sys.version.split()[0]}, nproc {nproc}, src lines {src_lines}"


def run(args) -> tuple[dict, list[dict]]:
    """Returns (metric values, per-type results of every pass)."""
    kind, types = WORKLOADS[args.workload]
    types = list(types)
    random.Random(args.seed).shuffle(types)
    deadline = time.monotonic() + DEADLINE_S
    out = OUT / args.workload
    spec = {"kind": kind, "types": types, "out": str(out), "golden": str(GOLDEN), "trace": None}
    start = time.monotonic()

    if args.trace:
        plain = child({**spec, "mode": "pass"}, deadline)
        trace_file = OUT / f"trace_{args.workload}.json"
        traced = child({**spec, "mode": "pass", "trace": str(trace_file)}, deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"] - 1
        return metrics, plain["types"] + traced["types"]

    setups = [child({**spec, "mode": "setup"}, deadline) for _ in range(SETUP_RUNS)]
    passes = []
    while True:
        passes.append(child({**spec, "mode": "pass"}, deadline))
        if time.monotonic() - start + passes[-1]["wall"] > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(s["wall"] for s in setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
    }
    print(f"{len(passes)} passes, {SETUP_RUNS} set-ups")
    return metrics, [t for p in passes for t in p["types"]]


def write_golden() -> None:
    """Record the outputs of the program as it stands as golden.json."""
    golden: dict = {}
    for workload, (kind, types) in WORKLOADS.items():
        spec = {"mode": "pass", "kind": kind, "types": list(types), "out": str(OUT / workload),
                "golden": None, "trace": None}
        for result in child(spec, time.monotonic() + 600)["types"]:
            if not result["ok"]:
                raise BenchError(f"{result['type']}: {result['detail']}")
            golden.setdefault(kind, {})[result["type"]] = result["observed"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="record golden.json and exit")
    args = parser.parse_args()
    try:
        if not (SRC / "coxcent" / "__init__.py").is_file():
            raise BenchError(f"no coxcent package under {SRC}")
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        values, results = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    failed = [r for r in results if not r["ok"]]
    for r in failed:
        print(f"FAILED {r['type']}: {r['detail']}")
    print(environment())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {len(failed) / len(results):.6g} fraction ({len(failed)}/{len(results)} types)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
