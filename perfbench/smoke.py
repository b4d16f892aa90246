"""Smoke test of the benchmark itself.

Usage: python3 perfbench/smoke.py

Runs every workload on its tiny deck, untraced and traced, and checks
that each run exits 0, emits every metric BENCHMARK.json names with its
unit, fails no request (fail_ratio 0), and, for verify_mixed, catches all
three injected faults.  Exits 0 when all hold, 1 otherwise.  Takes about
ten seconds.
"""

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--tiny"], capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, lines, result


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc, lines, result = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if result is None:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} requests failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    want_units = {m["name"]: m["unit"] for m in wanted}
    got_units = {name: m["unit"] for name, m in result["metrics"].items()}
    if got_units != want_units:
        problems.append(f"{where}: metrics/units {got_units} != "
                        f"{want_units}")
    if workload == "verify_mixed":
        caught = next((ln.split(":", 1)[1].split() for ln in lines
                       if ln.startswith("negative controls caught:")), [])
        if sorted(caught) != sorted(workloads.FAULTS):
            problems.append(f"{where}: negative controls caught {caught}")
    return problems


def check_wrong_answers_fail() -> list:
    """The checks reject a wrong digest, not only an exception."""
    import worker
    q = worker.setup("rmatrix_cold")
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    problems = []
    for workload, req in (
            ("rmatrix_cold", workloads.Request(
                workloads.rmatrix_key("A1", (1,), (1,)),
                ("A1", (1,), (1,)))),
            ("basis_cold", workloads.Request(
                workloads.basis_key("A1", (2,)), ("A1", (2,))))):
        out = workloads.serve(q, workload, req)
        if workloads.check(workload, req, out, reference) is not None:
            problems.append(f"{workload}: right answer rejected")
        tampered = {name: {key: {k: "0" * 64 for k in digests}
                           for key, digests in table.items()}
                    for name, table in reference.items()}
        if workloads.check(workload, req, out, tampered) is None:
            problems.append(f"{workload}: wrong digest accepted")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        print(f"BENCHMARK.json workloads {names} != {workloads.WORKLOADS}")
        return 1
    problems = check_wrong_answers_fail()
    for workload in names:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
