"""pptoggle benchmark: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

One client in one process runs a workload's jobs back to back (a closed
loop). Every pass of the job list runs in a fresh interpreter, so caches
start cold as they do for a command-line user, and passes repeat until
--seconds would be exceeded (at least three). With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics, taken from two traced passes
that must agree on every count, next to one untraced pass that gives the
tracing overhead. Spans of traced passes are written under .perfbench/.

Times are reported at reference machine speed: each pass's times are scaled
by REFERENCE_CALIBRATION_S over the median time of a fixed transfer-like
sweep timed between its jobs (passrun.calibration). On a shared machine
whose speed drifts by tens of percent over minutes, this keeps runs made at
different moments comparable; the info line gives the raw median wall time
and the scale.

Run from the root of a checkout; pptoggle is imported from its src/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("series", "census", "biject", "gate")
MIN_PASSES = 3
DEADLINE_S = 170.0  # the whole run, its passes included, ends within this
REFERENCE_CALIBRATION_S = 0.008  # passrun.calibration() at reference speed


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _spawn(args, trace: bool, label: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("PPTOGGLE_WORKERS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "run.py"), "--pass", label,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {label} pass ran past the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {label} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest latency percentile with at least 10 jobs beyond it, as
    (value, percentile). With 20 jobs or fewer that percentile would not lie
    above the median, so the slowest job is reported instead."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 20 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def _scale(p: dict) -> float:
    """Factor taking a pass's times to reference machine speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(p["calibrations"])


def _job_medians(passes: list[dict]) -> list[float]:
    return [statistics.median(lat) for lat in
            zip(*([t * _scale(p) for t in p["latencies"]] for p in passes))]


def _report(correct: bool, passes: list[dict], metrics: dict, kind: str):
    units = {m["name"]: m["unit"] for m in _spec()[kind]}
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics do not match BENCHMARK.json: "
                         f"{sorted(missing)}")
    for p in passes:
        for err in p["errors"]:
            print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))


def measure(args) -> None:
    deadline = perf_counter() + DEADLINE_S
    started = perf_counter()
    passes = []
    while True:
        passes.append(_spawn(args, False, f"pass{len(passes)}", deadline))
        elapsed = perf_counter() - started
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break
    jobs = _job_medians(passes)
    tail, pct = _tail(jobs)
    digests = {p["digest"] for p in passes}
    failed = sum(p["failed"] for p in passes)
    walls = [p["wall_s"] * _scale(p) for p in passes]
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes "
          f"of {len(jobs)} jobs, job_tail_s is p{pct:.1f} of {len(jobs)} jobs, "
          f"fail_frac {failed / sum(p['jobs'] for p in passes):.4f}, "
          f"raw wall_s {statistics.median(p['wall_s'] for p in passes):.4f} "
          f"at scale {statistics.median(map(_scale, passes)):.4f}, "
          f"output digest {' '.join(sorted(digests))}")
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(p["items"] / w
                                         for p, w in zip(passes, walls)),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail,
        "setup_s": statistics.median(p["setup_s"] * _scale(p) for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    _report(failed == 0 and len(digests) == 1, passes, metrics, "end_to_end")


def trace(args) -> None:
    deadline = perf_counter() + DEADLINE_S
    plain = _spawn(args, False, "untraced", deadline)
    first = _spawn(args, True, "traced-a", deadline)
    second = _spawn(args, True, "traced-b", deadline)
    passes = [plain, first, second]
    a, b = first["layers"], second["layers"]
    differing = sorted(k for k in a if not k.endswith(".self_s") and a[k] != b[k])
    for key in differing:
        print(f"perfbench: count {key} differs between traced passes: "
              f"{a[key]} != {b[key]}", file=sys.stderr)
    sa, sb = _scale(first), _scale(second)
    metrics = {k: (a[k] * sa + b[k] * sb) / 2 if k.endswith(".self_s") else a[k]
               for k in a}
    traced_wall = (first["wall_s"] * sa + second["wall_s"] * sb) / 2
    plain_wall = plain["wall_s"] * _scale(plain)
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    tail, pct = _tail(plain["latencies"])
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics.update({"run.jobs": plain["jobs"], "run.job_tail_pct": pct,
                    "fail_frac": failed / attempted})
    digests = {p["digest"] for p in passes}
    print(f"perfbench: {args.workload} seed {args.seed}: traced "
          f"{traced_wall:.3f}s against {plain_wall:.3f}s untraced; "
          f"{len(differing)} counts differ; output digest "
          f"{' '.join(sorted(digests))}")
    _report(failed == 0 and len(digests) == 1 and not differing, passes,
            metrics, "per_layer")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_label", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_label:
        import passrun

        print(json.dumps(passrun.run_pass(args.workload, args.seed,
                                          bool(args.trace), args.pass_label)))
    elif args.trace:
        trace(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
