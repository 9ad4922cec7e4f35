"""Self-test of the benchmark on the tiny smoke types (A3, B3, H3).

    python3 perfbench/selftest.py

Checks that an untraced run prints every end-to-end metric of BENCHMARK.json
by name with its unit, and failed_ratio; that a traced run prints every
per-layer metric; that one corrupted golden entry makes failed_ratio
non-zero and the exit code 1 (in a copy of the benchmark and the program
whose golden.json is corrupted); and that a copy of the benchmark without the
program exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "out" / "selftest"


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(lines: list[str], declared: list[dict]) -> dict:
    result = json.loads(lines[-1])
    check(set(result["metrics"]) == {m["name"] for m in declared}, "metric names")
    for m in declared:
        name, unit = m["name"], m["unit"]
        check(result["metrics"][name]["unit"] == unit, f"unit of {name}")
        check(
            any(l.startswith(f"{name} ") and l.endswith(f" {unit}") for l in lines[:-1]),
            f"{name} printed with its unit",
        )
    return result


def copy_checkout(dest: Path, with_src: bool) -> Path:
    """A fresh copy of BENCHMARK.json and the benchmark, and of `src` if
    asked; run.py checks that it imports the program under its own root, so
    `src` is copied, not linked."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def failed_ratio(lines: list[str]) -> float:
    (line,) = [l for l in lines if l.startswith("failed_ratio ")]
    return float(line.split()[1])


def main() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SCRATCH.mkdir(parents=True, exist_ok=True)

    code, lines = bench("--trace", "0")
    check(code == 0, "untraced smoke run exits 0")
    result = check_metrics(lines, declared["end_to_end"])
    check(result["correct"] and result["failed"] == 0, "smoke outputs are correct")
    check(failed_ratio(lines) == 0, "failed_ratio is 0")

    code, lines = bench("--trace", "1")
    check(code == 0, "traced smoke run exits 0")
    check_metrics(lines, declared["per_layer"])

    corrupt = copy_checkout(SCRATCH / "corrupt", with_src=True)
    golden_file = corrupt / "perfbench" / "golden.json"
    golden = json.loads(golden_file.read_text(encoding="utf-8"))
    golden["verify"]["B3"]["csv_sha256"] = "0" * 64
    golden_file.write_text(json.dumps(golden), encoding="utf-8")
    code, lines = bench("--trace", "0", cwd=corrupt)
    check(code == 1, "a corrupted golden entry exits 1")
    result = json.loads(lines[-1])
    check(not result["correct"] and result["failed"] >= 1, "the corrupted type is counted as failed")
    check(failed_ratio(lines) > 0, "failed_ratio is non-zero")

    bare = copy_checkout(SCRATCH / "bare", with_src=False)
    code, lines = bench("--trace", "0", cwd=bare)
    check(code != 0 and not any(l.startswith("{") for l in lines), "no program: non-zero exit, no result")
    print("selftest ok")


if __name__ == "__main__":
    main()
