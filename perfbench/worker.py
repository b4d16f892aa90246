"""Serve one deck of a workload in this (fresh, single-threaded) process.

Usage: python3 perfbench/worker.py --workload W --seed N --deck I
           [--trace 0|1] [--tiny]

Prints one JSON line: set-up time, deck wall time (without the probe),
peak RSS, the probe's mean slice time after set-up and over the deck, and
one [latency_ms, error or null, key, fault, slice_s] row per request,
slice_s being the probe's slice time right after the request; with
--trace 1 also the per-layer figures of the deck, and the trace spans go
to .perfbench/spans-<workload>-seed<s>-deck<i>.json.
"""

import argparse
import importlib
import json
import math
import os
import resource
import sys
import types
from time import perf_counter

import workloads
from layertrace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

OUT_DIR = os.path.join(ROOT, ".perfbench")

QRMAT_MODULES = ("cartan", "uqmod", "bases", "sysmorph", "rmatrix", "cli")

# Share of each request's latency spent on the speed probe after it.
PROBE_SHARE = 0.1
PROBE_MIN_S = 0.002
# Probe time right after set-up, for the speed during set-up.
SETUP_PROBE_S = 0.15


def _probe_once() -> int:
    """A fixed slice of pure-Python rational arithmetic, the kind of work
    qrmat's scalars do, written without qrmat and without `fractions` so
    that it leaves the measured import and caches alone."""
    num, den = 0, 1
    for i in range(1, 40):
        n, d = num * (i + 2) + den * (i + 1), den * i * (i + 2)
        g = math.gcd(n, d)
        num, den = n // g, d // g
    return num


class SpeedProbe:
    """Times the probe in slices interleaved with the requests, so that
    its mean time per slice tracks the host speed over the deck."""

    def __init__(self):
        self.seconds = 0.0
        self.slices = 0

    def run(self, seconds: float) -> float:
        """Probe for about `seconds`; returns this call's time per slice."""
        start = perf_counter()
        end = start + seconds
        n = 0
        while True:
            _probe_once()
            n += 1
            now = perf_counter()
            if now >= end:
                break
        self.seconds += now - start
        self.slices += n
        return (now - start) / n

    def slice_s(self) -> float:
        return self.seconds / self.slices


def setup(workload: str) -> types.SimpleNamespace:
    """Import qrmat from this checkout, build Cartan data, calibrate."""
    sys.path.insert(0, SRC)
    q = types.SimpleNamespace(**{
        name: importlib.import_module(f"qrmat.{name}")
        for name in QRMAT_MODULES})
    if not os.path.abspath(q.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"qrmat imported from {q.cli.__file__}, "
                           f"not from {SRC}")
    for label in workloads.SETUP_TYPES[workload]:
        q.sysmorph.calibrate_braid_variant(q.cartan.make_cartan(label))
    return q


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--deck", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    t0 = perf_counter()
    q = setup(args.workload)
    setup_s = perf_counter() - t0
    setup_probe = SpeedProbe()
    setup_probe.run(SETUP_PROBE_S)

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    deck = workloads.make_deck(args.workload, args.seed, args.deck,
                               args.tiny)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    probe = SpeedProbe()
    rows = []
    start = perf_counter()
    for i, req in enumerate(deck):
        if tracer is not None:
            tracer.request = i
        t = perf_counter()
        try:
            out = workloads.serve(q, args.workload, req)
        except Exception as exc:  # a failed request is counted, not fatal
            lat = perf_counter() - t
            error = f"{type(exc).__name__}: {exc}"
        else:
            lat = perf_counter() - t
            error = workloads.check(args.workload, req, out, reference)
        slice_s = probe.run(max(lat * PROBE_SHARE, PROBE_MIN_S))
        rows.append([lat * 1000.0, error, req.key, req.fault, slice_s])
    wall_s = perf_counter() - start - probe.seconds

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_probe_s": setup_probe.slice_s(),
        "probe_s": probe.slice_s(),
        "requests": rows,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed"
                             f"{args.seed}-deck{args.deck}.json")
        with open(spans, "w") as f:
            json.dump(tracer.spans_obj(), f, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
