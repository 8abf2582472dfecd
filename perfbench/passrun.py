"""One pass of a workload in a fresh process: set up, run the jobs back to
back, check the outputs, and print one JSON line describing the pass.

Set-up time covers importing pptoggle from the checkout's src/, generating
the seeded inputs and a warm-up call outside the job list. Each job is timed
on its own; the checks and the digest run after the timed loop.

Between jobs, at least every CALIBRATE_EVERY_S seconds, the pass also times
a fixed transfer-like sweep that runs no pptoggle code. Its times show how
fast the machine ran during the pass; run.py uses them to put passes that
ran at different machine speeds on one scale.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.25


def _below(lam):
    """Partitions interlacing below lam, by the benchmark's own recursion."""
    def rec(i, prefix):
        if i > len(lam):
            parts = list(prefix)
            while parts and parts[-1] == 0:
                parts.pop()
            yield tuple(parts)
            return
        for v in range(lam[i - 1], (lam[i] if i < len(lam) else 0) - 1, -1):
            prefix.append(v)
            yield from rec(i + 1, prefix)
            prefix.pop()

    yield from rec(1, [])


def calibration() -> float:
    """Seconds taken by a fixed transfer-like sweep written here, not in
    pptoggle: partitions as states, exponent -> count dicts as values, the
    same mix of tuple, dict and generator work as the program's hot loops."""
    t = perf_counter()
    state = {lam: {0: 1} for lam in ref.partitions_up_to(10)}
    for _ in range(3):
        out: dict = {}
        for kappa, ser in state.items():
            w = sum(kappa)
            for mu in _below(kappa):
                d = w - sum(mu)
                tgt = out.setdefault(mu, {})
                for x, c in ser.items():
                    if x + d <= 30:
                        tgt[x + d] = tgt.get(x + d, 0) + c
        state = out
    return perf_counter() - t


def _import_package():
    """Import pptoggle from this checkout, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pptoggle
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pptoggle from {src}: {exc}")
    where = Path(pptoggle.__file__).resolve().parent
    if where != (src / "pptoggle").resolve():
        raise SystemExit(f"perfbench: pptoggle was imported from {where}, "
                         f"not from {src}")


def run_pass(workload: str, seed: int, trace: bool, label: str) -> dict:
    t0 = perf_counter()
    _import_package()
    import tracer
    import workloads

    plan = workloads.build(workload, seed)
    plan.warm_up()
    setup_s = perf_counter() - t0

    rec = None
    if trace:
        rec = tracer.Recorder()
        tracer.install(rec, workloads.GATE_SUITES)

    outputs, latencies, errors = [], [], []
    calibrations = [calibration()]
    calibrated = perf_counter()
    for idx, job in enumerate(plan.jobs):
        if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            calibrations.append(calibration())
            calibrated = perf_counter()
        if rec is not None:
            rec.job, rec.active = idx, True
        t = perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failing job counts as failed, not fatal
            out = None
            errors.append(f"job {idx} ({job.kind} {job.legs!r}): {exc!r}")
        latencies.append(perf_counter() - t)
        if rec is not None:
            rec.active = False
        outputs.append(out)
    calibrations.append(calibration())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ok = plan.check(outputs)
    items = sum(job.items(out) for job, out in zip(plan.jobs, outputs)
                if out is not None)
    canon = [None if out is None else plan.canon(job, out)
             for job, out in zip(plan.jobs, outputs)]
    digest = hashlib.sha256(json.dumps(canon, default=repr).encode()).hexdigest()

    result = {"workload": workload, "seed": seed, "setup_s": setup_s,
              "wall_s": sum(latencies), "latencies": latencies,
              "calibrations": calibrations, "items": items,
              "jobs": len(plan.jobs), "failed": ok.count(False),
              "errors": errors[:5], "peak_rss_mib": peak_rss_mib,
              "digest": digest}
    if rec is not None:
        result["layers"] = tracer.summarize(rec, workloads.GATE_SUITES)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"spans-{workload}-seed{seed}-{label}.tsv.gz")
    return result
