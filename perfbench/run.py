"""Benchmark of the vibroimpact engine: one workload per run.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  A run times the set-up in fresh interpreters, repeats
whole rounds of the workload's job until the next round would end after
``--seconds``, checks the outputs, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
a traced run with ``--trace 1``.  The job's times are given at the
reference machine speed of ``calibrate.py``: their measured seconds times
the speed factor of calibration bursts made on the same core while the
job ran.  It exits 1 when an output check fails and 2 when the checkout
holds no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5


def _import_package() -> float:
    """Import numpy, scipy and vibroimpact from the checkout; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "vibroimpact", "__init__.py")):
        _refuse(f"no vibroimpact package under {SRC}: run from a source "
                "checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import vibroimpact
    dt = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(vibroimpact.__file__))
    if where != os.path.join(SRC, "vibroimpact"):
        _refuse(f"vibroimpact imported from {where}, not from {SRC}")
    return dt


def _refuse(msg: str) -> None:
    print(msg, file=sys.stderr)
    sys.exit(2)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def _setup_s(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it has the
    workload's inputs ready; median of SETUP_PROBES launches.  Unlike the
    job's, these seconds are not scaled by the calibration: the launch
    and imports are mostly kernel and loader work, which the calibration
    kernel does not track (scaling widened their spread from 0.08 to
    0.17 of the median in a test of 12 launches)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
        times.append(dt)
    return statistics.median(times)


def _round(wl, inputs, failures: list[str], sampler):
    """One whole round of the job under the calibration sampler.

    Returns (outputs, wall s, cpu s, speed factor): the seconds are the
    job's own, without the time of the calibration bursts."""
    out: dict = {}
    with sampler:
        c0 = _cpu_s()
        t0 = time.perf_counter()
        for key, step in wl.steps:
            try:
                out[key] = step(inputs, out)
            except Exception as exc:   # counted as a failed operation
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                out[key] = None
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    factor, handler_s = sampler.take()
    return out, wall - handler_s, cpu - handler_s, factor


def _rounds(wl, inputs, seconds: float, failures: list[str], sampler):
    """Whole rounds until the next one would end past ``seconds``.

    Returns the last round's outputs, the digest of every round's outputs,
    and the measured wall seconds, CPU seconds and speed factor of every
    round.  Each round's outputs are released before the next round
    starts, so the peak resident set does not grow with the number of
    rounds."""
    digests, walls, cpus, factors = [], [], [], []
    t0 = time.perf_counter()
    while True:
        out = None
        out, wall, cpu, factor = _round(wl, inputs, failures, sampler)
        walls.append(wall)
        cpus.append(cpu)
        factors.append(factor)
        if not failures:
            digests.append(wl.digest(out))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(walls) > seconds:
            return out, digests, walls, cpus, factors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_s = _import_package()
    import numpy as np
    from calibrate import Sampler
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    failures: list[str] = []
    inputs = wl.setup()
    sampler = Sampler()
    if args.trace:
        metrics, out, digests, rounds = _traced(wl, inputs, args, failures,
                                                import_s, sampler)
    else:
        setup_s = _setup_s(wl.name, args.seed)
        out, digests, walls, cpus, factors = _rounds(wl, inputs, args.seconds,
                                                     failures, sampler)
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_s": (statistics.median(w * k for w, k in zip(walls, factors)),
                      "s"),
            "cpu_s": (statistics.median(c * k for c, k in zip(cpus, factors)),
                      "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        rounds = len(walls)
        print(f"measured per round: job {statistics.median(walls):.4g} s, "
              f"cpu {statistics.median(cpus):.4g} s, machine speed factor "
              f"{statistics.median(factors):.4g}")
    attempted = rounds * len(wl.steps)
    failed = len(failures)

    problems = list(failures)
    if not failures:
        if len(set(digests)) != 1:
            problems.append(f"outputs differ between the {rounds} rounds")
        rng = np.random.default_rng(args.seed)
        problems += wl.check(inputs, out, rng)
        for line in wl.report(out):
            print(line)
    print(f"{wl.name}: {rounds} round(s), {attempted} operations, "
          f"{failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def _traced(wl, inputs, args, failures, import_s, sampler):
    """One untraced round, then traced rounds.  Returns the per-layer
    metrics, the last round's outputs, the traced rounds' digests and the
    number of rounds run.  The tracer reads the sampler's clock, so the
    calibration bursts stay out of its spans."""
    from spans import PER_LAYER_UNITS, Tracer

    _, base_raw, _, factor = _round(wl, inputs, failures, sampler)
    base = base_raw * factor
    tracer = Tracer(clock=sampler.clock)
    with tracer:
        out, digests, walls, _, factors = _rounds(
            wl, inputs, args.seconds - base_raw, failures, sampler)
    values = tracer.metrics(len(walls))
    traced = statistics.median(w * k for w, k in zip(walls, factors))
    values["setup.import_s"] = import_s
    values["trace.job_s"] = traced
    values["trace.overhead_s"] = traced - base
    values["trace.overhead_share"] = (traced - base) / base
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"trace-{wl.name}-seed{args.seed}.json")
    tracer.dump(path, {"workload": wl.name, "seed": args.seed,
                       "untraced_job_s": base_raw, "traced_job_s": walls,
                       "speed_factors": [factor, *factors]})
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    metrics = {k: (values[k], u) for k, u in PER_LAYER_UNITS.items()}
    return metrics, out, digests, len(walls) + 1


if __name__ == "__main__":
    sys.exit(main())
