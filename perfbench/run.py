#!/usr/bin/env python3
"""Benchmark posetlab end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload audit-suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: posetlab is imported from `src/` there and
nowhere else.  Each run is one process, single-threaded, in a closed loop: the
next operation starts when the last returns.  A pass runs every operation of
the workload once; passes repeat while another one fits in --seconds, and at
least one runs.  Every output is checked against values computed apart from
posetlab (see oracle.py).  The last line of stdout is a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 makes
one traced pass (set-up included) and reports the per-layer metrics; it writes
the call tree and spans to .perfbench_out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from common import Outcome

# One thread per workload process, in this process and in its set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = {
    "audit-suite": "wl_audit",
    "homology-large": "wl_homology",
    "cli-files": "wl_cli",
}
# Set-up children per run: half before the timed passes and half after, so
# the median spans the run rather than the few seconds before it.
SETUP_SAMPLES = (8, 7)
SETUP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(message):
    print(f"# {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _use_checkout_sources():
    if not os.path.isfile(os.path.join(SRC, "posetlab", "__init__.py")):
        raise BenchError(f"no posetlab sources at {SRC}; run from a checkout of the repository")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _check_imported_from_checkout():
    import posetlab

    where = os.path.dirname(os.path.abspath(posetlab.__file__))
    if where != os.path.join(SRC, "posetlab"):
        raise BenchError(f"posetlab was imported from {where}, not from {SRC}")


def _fresh_workdir(workload):
    path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup_child(args):
    """Import posetlab and build the workload's inputs; print the time taken."""
    workdir = _fresh_workdir(args.workload)
    try:
        start = time.perf_counter()
        module = importlib.import_module(WORKLOADS[args.workload])
        module.build(args.seed, workdir)
        elapsed = time.perf_counter() - start
        _check_imported_from_checkout()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def measure_setup(args, count):
    """Set-up times of `count` fresh processes, so imports are not cached."""
    samples = []
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(count):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_pass(ops, tracer=None):
    """Run every operation once; an exception that escapes an operation marks
    it failed."""
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = op.call()
            else:
                with tracer.span(op.label):
                    value = op.call()
            error = None
        except Exception as exc:  # an escaping exception is the failure counted
            value, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(value, error, time.perf_counter() - t0))
    return outcomes, time.perf_counter() - start


class Tally:
    """Attempted and failed operations and output problems over a run."""

    def __init__(self, module):
        self.module = module
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, outcomes):
        self.attempted += len(outcomes)
        for op, out in zip(ops, outcomes):
            if out.failed:
                self.failed += 1
                log(f"failed: {op.label}: {out.error}")
        self.problems.extend(self.module.check(ops, outcomes))


def timed_run(args, module, ops, tally):
    """wall_s is the median pass; slowest_op_s the operation whose median time
    over the passes is largest, so two operations of similar cost do not make
    it the maximum of noisy values."""
    walls, op_times = [], [[] for _ in ops]
    start = time.perf_counter()
    while True:
        outcomes, wall = run_pass(ops)
        tally.add(ops, outcomes)
        worst = max(range(len(ops)), key=lambda i: outcomes[i].seconds)
        walls.append(wall)
        for times, out in zip(op_times, outcomes):
            times.append(out.seconds)
        log(f"pass {len(walls)}: {len(ops)} ops in {wall:.3f} s; slowest {ops[worst].label} {outcomes[worst].seconds:.3f} s")
        if time.perf_counter() - start + wall > args.seconds:
            break
    return {
        "wall_s": statistics.median(walls),
        "slowest_op_s": max(statistics.median(times) for times in op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, module, workdir, tally):
    from tracing import Tracer

    costs = Tracer.wrapper_costs()
    tracer = Tracer()
    tracer.install(extra_modules=[module])
    try:
        with tracer.span("setup"):
            ops = module.build(args.seed, workdir)
        outcomes, traced_wall = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    tally.add(ops, outcomes)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = tracer.overhead_s(costs)
    log(
        f"traced pass {traced_wall:.3f} s, of which the wrappers about "
        f"{metrics['trace.overhead_s']:.3f} s ({costs[0] * 1e6:.2f} us per span, "
        f"{costs[1] * 1e6:.2f} us per counted call)"
    )
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(dict(tracer.to_dict(), metrics=metrics), fh)
    log(f"trace written to {os.path.relpath(path, ROOT)}")
    return metrics


def load_metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def environment():
    import numpy
    from posetlab.linalg import active_backend

    return (
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} backend={active_backend()}"
    )


def main(argv=None):
    args = parse_args(argv)
    try:
        _use_checkout_sources()
        if args.setup_only:
            return setup_child(args)
        specs = load_metric_specs(args.trace)
        workdir = _fresh_workdir(args.workload)
        try:
            module = importlib.import_module(WORKLOADS[args.workload])
            _check_imported_from_checkout()
            log(f"workload={args.workload} seed={args.seed} trace={args.trace} {environment()}")
            tally = Tally(module)
            if args.trace:
                values = traced_run(args, module, workdir, tally)
            else:
                setup = measure_setup(args, SETUP_SAMPLES[0])
                ops = module.build(args.seed, workdir)
                values = timed_run(args, module, ops, tally)
                setup += measure_setup(args, SETUP_SAMPLES[1])
                values["setup_s"] = statistics.median(setup)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass  # another run still has its directory there
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in tally.problems:
        log(f"wrong output: {problem}")
    metrics = {}
    for spec in specs:
        if spec["name"] not in values:
            print(f"error: metric {spec['name']} was not measured", file=sys.stderr)
            return 2
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
