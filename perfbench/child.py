"""One benchmark child process: a set-up or one pass over a workload's types.

run.py starts it as `python -s child.py SPEC` with SPEC a JSON object:

  mode      "setup": import coxcent and build every type's CoxeterGroup with
            its order; "pass": run the workload on every type and check it
  kind      "verify", "census" or "theorems" (what a pass does per type)
  types     [[family, n], ...] in the order to run them
  out       directory for the artifacts
  golden    path of the golden file, or null to record outputs unchecked
  trace     path to write spans to, or null for an untraced pass

The last line of stdout is a JSON object with `maxrss_kb` and `t_done`, the
CLOCK_MONOTONIC time at which the last output was checked (run.py
subtracts its own start time).  A pass adds per type whether its outputs
were right.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_classes(ctype) -> list[list]:
    """The (degree, label, size) classes of the closed-form reference rows."""
    from coxcent import expected_rows

    return sorted(
        [r.degree, label, r.class_size] for r in expected_rows(ctype) for label in r.labels
    )


def rows_match(analysis) -> bool:
    from coxcent import compare_rows, computed_rows, expected_rows

    got = computed_rows(analysis.group, analysis.profiles)
    return not compare_rows(expected_rows(analysis.group.ctype), got)


def run_verify(ctype, out: Path) -> tuple[bool, dict]:
    """`analyze` one type, compare its rows and write its CSV and JSON."""
    from coxcent import analyze
    from coxcent.tables import class_csv, class_json

    analysis = analyze(ctype)
    rows_ok = rows_match(analysis)
    name = str(ctype).replace("(", "_").replace(")", "")
    observed = {}
    for ext, text in (("csv", class_csv(analysis)), ("json", class_json(analysis))):
        data = text.encode("utf-8")
        (out / f"{name}.{ext}").write_bytes(data)
        observed[f"{ext}_sha256"] = sha256(data)
    return rows_ok, observed


def run_census(ctype, out: Path) -> tuple[bool, dict]:
    """Enumerate one type's involution classes and nothing else."""
    from coxcent import CoxeterGroup, enumerate_involution_classes

    classes = enumerate_involution_classes(CoxeterGroup(ctype))
    got = sorted([c.degree, c.label, c.size] for c in classes)
    return got == expected_classes(ctype), {"classes": got}


def cli_type_args(family: str, n: int) -> list[str]:
    if family in ("A", "B", "D"):
        return ["--type", family, "--rank", str(n)]
    if family == "I":
        return ["--type", "I2", "--m", str(n)]
    return ["--type", f"{family}{n}"]


def run_theorems(ctype, out: Path) -> tuple[bool, dict]:
    """`coxcent theorems --out`; the classes of its gamma rows are compared
    with the reference rows' classes."""
    from coxcent import cli

    family, n = ctype.components[0]
    code = cli.main(["theorems", *cli_type_args(family, n), "--out", str(out)])
    data = (out / f"theorems_{ctype}.json").read_bytes()
    got = sorted([r["degree"], r["label"]] for r in json.loads(data)["gamma"])
    want = [c[:2] for c in expected_classes(ctype)]
    return code == 0 and got == want, {"theorems_sha256": sha256(data)}


KINDS = {"verify": run_verify, "census": run_census, "theorems": run_theorems}


def run_pass(spec: dict, tracer) -> list[dict]:
    from coxcent import CoxeterType

    golden = None
    if spec["golden"] is not None:
        golden = json.loads(Path(spec["golden"]).read_text(encoding="utf-8"))[spec["kind"]]
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)  # a missing output must not pass
    out.mkdir(parents=True)
    run_type = KINDS[spec["kind"]]
    results = []
    for family, n in spec["types"]:
        ctype = CoxeterType([(family, n)])
        name = str(ctype)
        with tracer.span(f"type:{name}") if tracer else nullcontext():
            try:
                rows_ok, observed = run_type(ctype, out)
            except Exception:
                traceback.print_exc()
                results.append({"type": name, "ok": False, "detail": "raised"})
                continue
        if not rows_ok:
            detail = "rows differ from the reference table"
        elif golden is not None and golden.get(name) != observed:
            detail = "output differs from the golden entry"
        else:
            detail = ""
        results.append({"type": name, "ok": not detail, "detail": detail, "observed": observed})
    return results


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
    with tracer.span("cli.import") if tracer else nullcontext():
        import coxcent.cli  # noqa: F401  (the package and every layer)
    if tracer:
        tracing.install(tracer)

    report: dict = {"coxcent": coxcent.__file__}
    if spec["mode"] == "setup":
        from coxcent import CoxeterGroup, CoxeterType

        for family, n in spec["types"]:
            CoxeterGroup(CoxeterType([(family, n)])).order
    else:
        report["types"] = run_pass(spec, tracer)
    report["t_done"] = time.monotonic()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["layers"] = tracer.layer_metrics()
        Path(spec["trace"]).write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
