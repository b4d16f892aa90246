"""Record the reference digests the benchmark checks outputs against.

Usage: python3 perfbench/record_reference.py

Computes every catalog entry of rmatrix_cold and basis_cold with the code
in this checkout and writes perfbench/reference.json: the SHA-256 of each
route's RMatrixResult.serialize(), and of each global basis' canonical
JSON and crystal DOT.  The committed file was recorded at the commit that
introduced the benchmark; re-record only when an output format changes on
purpose, never to make a wrong answer pass.
"""

import json
import os
import sys

import worker
import workloads


def main() -> int:
    q = worker.setup("basis_cold")   # calibrates every type used below
    ref = {"rmatrix": {}, "basis": {}}
    for label, lam, mu in workloads.rmatrix_catalog():
        agree, texts = workloads.serve_rmatrix(q, label, lam, mu)
        if not agree:
            raise SystemExit(f"routes disagree on {label} {lam} x {mu}")
        ref["rmatrix"][workloads.rmatrix_key(label, lam, mu)] = {
            m: workloads.sha256(t) for m, t in zip(workloads.METHODS, texts)}
        print("rmatrix", label, lam, mu, flush=True)
    for label, hw in workloads.basis_catalog():
        js, dot = workloads.serve_basis(q, label, hw)
        ref["basis"][workloads.basis_key(label, hw)] = {
            "json": workloads.sha256(js), "dot": workloads.sha256(dot)}
        print("basis", label, hw, flush=True)
    path = os.path.join(worker.HERE, "reference.json")
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
