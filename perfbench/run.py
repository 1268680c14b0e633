"""The finedrop benchmark: one command runs a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload sweep-ref --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from the checkout's `src/`.
See perfbench/README.md for the workloads and every metric.

--trace 0 measures the end-to-end metrics with no tracing installed. Units
run back to back until --seconds have passed (at least one). Every time is
corrected for host contention: it is divided by the slowdown that
sysinfo.slowdown() measures just before and just after it.
  setup_s      median of the workload's setup_repeats set-ups, each in a fresh
               interpreter; their probe is sysinfo.startup_slowdown()
  wall_s       median wall time of one unit (time to a solution)
  steps_per_s  median over units of optimizer steps (from the run records) / wall
  peak_rss_mb  peak RSS of this process plus its pool workers, up to the end of
               the first unit (sysinfo.PeakMemory)

--trace 1 sets up once in-process with tracing on, then runs each of the
workload's trace units untraced and traced in turn, and reports the
per-layer metrics from the spans (see tracing.py); trace.overhead is the
median over units of traced / untraced wall time. It exits with status 1 if
the trace does not reconcile with the run records.

Every unit's output is checked against golden.json when it holds digests for
this seed and this numpy/BLAS build, and always against structural checks and
against earlier units with the same inputs. Failed runs and mismatches count
in `failed`; error_rate = failed / attempted.

The metrics reported, and their units, are the ones BENCHMARK.json declares.
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the full
result, with the environment and raw times, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BLAS_THREADS = 1


def bootstrap() -> None:
    """Pin BLAS threads and import finedrop from this checkout; exit if absent."""
    if not os.path.isfile(os.path.join(SRC, "finedrop", "__init__.py")):
        sys.exit(f"perfbench: no finedrop package under {SRC}; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import finedrop

    if not os.path.abspath(finedrop.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: finedrop was imported from {finedrop.__file__}, not {SRC}")


def digest_environment(env: dict) -> dict:
    """The part of the environment that bit-exact outputs depend on."""
    return {"numpy": env["numpy"], "blas": env["blas"]["config"]}


class OutputCheck:
    """Compares unit digests with golden.json and with earlier units."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.mismatches = 0
        self.notes: list[str] = []
        self._seen: dict = {}
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, "r", encoding="utf-8") as fh:
                golden = json.load(fh)
        self.recorded = golden.get("digests", {}).get(workload, {}).get(str(seed))
        if self.recorded is None:
            self.notes.append(f"digest not checked for seed {seed}: none recorded; structural checks only")
        elif golden.get("environment") != digest_environment(env):
            self.notes.append(f"digest not checked for seed {seed}: recorded under "
                              f"{golden.get('environment')}; structural checks only")
            self.recorded = None
        else:
            self.notes.append(f"digests checked against golden.json for seed {seed}")

    def check(self, key: str, digests: dict, what: str) -> None:
        if not digests:  # the unit failed before producing output; counted already
            return
        references = [self._seen.setdefault(key, digests)]
        if self.recorded is not None:
            references.append(self.recorded.get(key, {}))
        for ref in references:
            bad = sorted(name for name in set(ref) | set(digests) if ref.get(name) != digests.get(name))
            if bad:
                self.mismatches += len(bad)
                self.notes.append(f"{what}: digest mismatch in {', '.join(bad)}")


def run_unit(wl, check: OutputCheck, i: int):
    """Run, time and check unit i; a unit that raises counts all its runs failed."""
    from workloads import UnitResult

    t0 = time.perf_counter()
    try:
        output = wl.run_unit(i)
    except Exception:  # the failure is counted and the run goes on
        traceback.print_exc()
        output = None
    wall = time.perf_counter() - t0
    if output is None:
        res = UnitResult(key=str(i % wl.cycle), runs=wl.runs_per_unit, failed=wl.runs_per_unit)
    else:
        res = wl.inspect(i, output)
    res.wall = wall
    check.check(res.key, res.digests, f"unit {i}")
    return res


def run_setup_process(wl, directory: str) -> float:
    """One set-up in a fresh interpreter; returns its wall time."""
    import workloads

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, workloads.__file__, wl.name, str(wl.seed), directory],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {wl.name} failed:\n{proc.stderr[-4000:]}")
    return elapsed


def _between(probes: list) -> list:
    """Slowdown for each interval between consecutive probes: their mean."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def run_timed(wl, check: OutputCheck, seconds: float) -> tuple[dict, list, dict]:
    """End-to-end metric values, the units run, and the raw times."""
    import sysinfo
    import workloads

    probes = [sysinfo.startup_slowdown()]
    setup_walls = []
    for k in range(wl.setup_repeats):
        directory = os.path.join(wl.workdir, f"setup-{k}")
        setup_walls.append(run_setup_process(wl, directory))
        probes.append(sysinfo.startup_slowdown())
        check.check("setup", {"tree": workloads.tree_digest(directory)}, f"set-up {k}")
    setup_slowdowns = _between(probes)
    wl.load(os.path.join(wl.workdir, "setup-0"))

    probes = [sysinfo.slowdown()]

    def timed_unit(i):
        res = run_unit(wl, check, i)
        probes.append(sysinfo.slowdown())
        return res

    start = time.perf_counter()
    # Peak memory covers the first unit only: `finedrop sweep` runs one sweep
    # per process, and the peak must not grow with the number of units that fit.
    with sysinfo.PeakMemory() as mem:
        units = [timed_unit(0)]
    while time.perf_counter() - start < seconds:
        units.append(timed_unit(len(units)))
    unit_slowdowns = _between(probes)
    walls = [u.wall / s for u, s in zip(units, unit_slowdowns)]
    metrics = {
        "setup_s": statistics.median(w / s for w, s in zip(setup_walls, setup_slowdowns)),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(u.steps / w for u, w in zip(units, walls)),
        "peak_rss_mb": mem.peak_mib,
    }
    detail = {"raw_setup_s": setup_walls, "setup_slowdowns": setup_slowdowns,
              "unit_slowdowns": unit_slowdowns}
    return metrics, units, detail


def run_traced(wl, check: OutputCheck) -> tuple[dict, list, dict]:
    """Per-layer metric values from the spans, the units run, and span totals."""
    import tracing
    import workloads

    spill = os.path.join(wl.workdir, "spill")
    os.makedirs(spill)
    tracer = tracing.Tracer(spill)
    directory = os.path.join(wl.workdir, "setup")
    tracer.install()
    try:
        wl.setup(directory)
        wl.load(directory)
    finally:
        tracer.uninstall()
    check.check("setup", {"tree": workloads.tree_digest(directory)}, "set-up")

    plain, traced = [], []
    for i in range(wl.trace_units):
        plain.append(run_unit(wl, check, i))
        tracer.install()
        try:
            traced.append(run_unit(wl, check, i))
        finally:
            tracer.uninstall()

    os.makedirs(OUT_ROOT, exist_ok=True)
    stats = tracer.finish(os.path.join(OUT_ROOT, f"spans-{wl.name}.npz"))
    tracing.reconcile(
        stats,
        steps=wl.setup_steps + sum(u.steps for u in traced),
        runs=sum(u.finetunes for u in traced),
        dropout_steps=sum(u.dropout_steps for u in traced),
        pool=wl.parallel > 1,
    )
    stats["trace.overhead"] = statistics.median(t.wall / p.wall for t, p in zip(traced, plain))
    detail = {"spans": stats["spans"], "worker_pids": stats["worker_pids"]}
    return stats, plain + traced, detail


def declared_metrics(values: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value for metrics BENCHMARK.json declares: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep-ref", "finetune-wide", "pretrain-rich"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--parallel", type=int, default=None,
                        help="sweep-ref pool workers; default and maximum: nproc")
    args = parser.parse_args(argv)
    bootstrap()

    import sysinfo
    import tracing
    import workloads

    nproc = sysinfo.nproc()
    parallel = args.parallel or nproc
    if not 1 <= parallel <= nproc:
        sys.exit(f"perfbench: --parallel {parallel} is outside 1..nproc ({nproc})")
    if args.workload != "sweep-ref":
        parallel = 1
    env = sysinfo.environment(ROOT, workload=args.workload, seed=args.seed, parallel=parallel,
                              trace=args.trace)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, parallel)
    check = OutputCheck(args.workload, args.seed, env)
    try:
        if args.trace:
            values, units, detail = run_traced(wl, check)
        else:
            values, units, detail = run_timed(wl, check, args.seconds)
        metrics = declared_metrics(values, args.trace)
    except (tracing.ReconciliationError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.runs for u in units)
    failed = sum(u.failed for u in units) + check.mismatches
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"environment": env, "error_rate": failed / attempted, "checks": check.notes,
              "units": [{"key": u.key, "wall_s": u.wall, "steps": u.steps, "runs": u.runs,
                         "failed": u.failed} for u in units],
              **detail, **result}
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} units={len(units)}")
    for name, m in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{label}")
    print(f"  {'error_rate':<44} {failed / attempted:.6g} ratio ({failed} failed of {attempted} runs)")
    for note in check.notes:
        print(f"  check: {note}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
