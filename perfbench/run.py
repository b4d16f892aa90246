"""The qrmat benchmark: one workload, one seed, one result line.

Usage: python3 perfbench/run.py --workload W --seed N --seconds S
           --trace 0|1 [--tiny]

Closed loop, one client.  The run serves decks of the workload (see
workloads.py), each in a fresh single-threaded worker process, one after
the other, and starts another deck while the decks so far suggest it will
end within --seconds; it always serves at least one, and an untraced run
keeps going past --seconds until it has served 100 requests, so that
at least ten latency samples lie above p90.  Every output is checked.  Every reported time is taken to a fixed reference speed of the
host with a speed probe the worker runs after each request (see
REFERENCE_SLICE_S); the figures as measured are printed above the result.
The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of traced decks, each traced deck paired
with an untraced run of the same deck so that the tracing overhead shows.
Exit 0 with a result, 2 on bad usage or a missing qrmat source tree, 1
when a worker crashes or overruns.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HARD_LIMIT_S = 170.0   # a run must end within 180 s
MIN_REQUESTS = 100     # so that at least ten latency samples lie above p90
# Time of one probe slice (worker.SpeedProbe) at the reference speed.
# Every reported time is scaled by REFERENCE_SLICE_S / measured slice time,
# so a host that runs the probe slower or faster than the reference
# reports the same figures for the same work.
REFERENCE_SLICE_S = 40e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


PER_LAYER_UNITS = {name: per_layer_unit(name)
                   for name in list(layertrace.METRICS) + ["trace.overhead_s"]}


class WorkerError(Exception):
    pass


def run_worker(args, deck: int, trace: int, started: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--deck", str(deck), "--trace", str(trace)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = HARD_LIMIT_S - (perf_counter() - started)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"deck {deck} overran the {HARD_LIMIT_S:.0f} s "
                          f"limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"deck {deck} worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def serve_decks(args, started: float):
    """Untraced (and with --trace 1, traced) deck results."""
    plain: List[dict] = []
    traced: List[dict] = []
    costs: List[float] = []
    deck = 0
    while True:
        t = perf_counter()
        plain.append(run_worker(args, deck, 0, started))
        if args.trace:
            traced.append(run_worker(args, deck, 1, started))
        costs.append(perf_counter() - t)
        deck += 1
        elapsed = perf_counter() - started
        served = sum(len(d["requests"]) for d in plain)
        # only untraced runs report latencies, and so need the samples
        short = served < MIN_REQUESTS and not (args.trace or args.tiny)
        budget = HARD_LIMIT_S / 2 if short else args.seconds
        if elapsed + statistics.median(costs) > budget:
            return plain, traced


def scale(d: dict, probe_key: str = "probe_s") -> float:
    """Factor that takes a time of deck d to the reference speed."""
    return REFERENCE_SLICE_S / d[probe_key]


def deck_latencies(d: dict) -> List[float]:
    """Request latencies of deck d, each scaled by the mean of the probe
    slices measured just before and just after it."""
    before = [d["setup_probe_s"]] + [r[4] for r in d["requests"][:-1]]
    return [r[0] * REFERENCE_SLICE_S * 2 / (b + r[4])
            for r, b in zip(d["requests"], before)]


def end_to_end(plain: List[dict], rows: List[list]) -> Dict[str, float]:
    ok = sum(1 for r in rows if r[1] is None)
    lat = [x for d in plain for x in deck_latencies(d)]
    return {
        "setup_s": statistics.median(
            d["setup_s"] * scale(d, "setup_probe_s") for d in plain),
        "wall_s": statistics.median(d["wall_s"] * scale(d) for d in plain),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": statistics.median(d["rss_mb"] for d in plain),
        "success_ratio": ok / len(rows),
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    out = {}
    for name in layertrace.METRICS:
        unit = PER_LAYER_UNITS[name]
        out[name] = statistics.median(
            d["layers"][name] * (scale(d) if unit == "s" else 1.0)
            for d in traced)
    # each traced deck repeats the untraced deck run just before it
    out["trace.overhead_s"] = statistics.median(
        t["wall_s"] * scale(t) - p["wall_s"] * scale(p)
        for p, t in zip(plain, traced))
    return out


def report(args, plain, traced) -> dict:
    rows = [r for d in plain + traced for r in d["requests"]]
    failed = [r for r in rows if r[1] is not None]
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plain, rows), END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} deck(s)"
          f"{' plus as many traced' if args.trace else ''}, "
          f"{len(rows)} requests, {len(failed)} failed "
          f"(fail_ratio {len(failed) / len(rows):.4f})")
    lat = [x for d in plain for x in deck_latencies(d)]
    p90 = statistics.quantiles(lat, n=10)[-1]
    print(f"latency over {len(lat)} untraced samples, at reference speed: "
          f"p50 {statistics.median(lat):.2f} ms, p90 {p90:.2f} ms with "
          f"{sum(1 for x in lat if x > p90)} samples above it")
    print("deck wall_s as measured: "
          + " ".join(f"{d['wall_s']:.3f}" for d in plain)
          + "; setup_s as measured: "
          + " ".join(f"{d['setup_s']:.3f}" for d in plain))
    print("host speed (reference slice / probe slice) per deck: "
          + " ".join(f"{scale(d):.3f}" for d in plain)
          + "; during set-up: "
          + " ".join(f"{scale(d, 'setup_probe_s'):.3f}" for d in plain))
    controls = sorted({r[3] for r in rows if r[3] and r[1] is None})
    if any(r[3] for r in rows):
        print("negative controls caught: " + " ".join(controls))
    for r in failed[:10]:
        print(f"FAILED {r[2]}: {r[1]}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    started = perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="serve a tiny deck (for the smoke test)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qrmat", "__init__.py")):
        print(f"no qrmat source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        plain, traced = serve_decks(args, started)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, plain, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
