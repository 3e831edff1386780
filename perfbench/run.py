"""Benchmark of the msprobit CLI: fit, evaluate and experiment sessions.

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. All
commands run in this one process through msprobit.cli.main with BLAS and
OpenMP pinned to one thread. A run measures set-up (fresh interpreters
importing msprobit.cli), runs one untimed warm-up unit, then repeats timed
units with their own seeds until --seconds have been measured, and finally
reruns the first timed unit's seed, whose files must be byte-identical.
Every unit's outputs are checked outside the timed sections.

With --trace 0 the last stdout line holds the end-to-end metrics (medians
over units). With --trace 1 every seed runs twice, once untraced and once
with spans recorded at the layer boundaries (order alternating), and the
last line holds the per-layer metrics per unit plus the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
SETUP_REPEATS = 3


if not os.path.isfile(os.path.join(SRC, "msprobit", "cli.py")):
    print(f"perfbench: no src/msprobit/cli.py under {ROOT}; run from the repository root",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import msprobit.cli  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, unit_seeds  # noqa: E402


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing msprobit.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", "import msprobit.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(command, env=env, check=True, cwd=ROOT)
        if i:  # the first import may still be compiling bytecode
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_loop_seconds() -> float:
    """A fixed loop of this file's own code, to show a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x, acc = np.arange(64, dtype=float), 0.0
        for i in range(20_000):
            acc += float(np.sum(x * (i % 7)))
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass(eq=False)
class Unit:
    directory: str
    truth: dict
    ok: bool  # every command exited 0
    seconds: float
    first_seconds: float  # the unit's first command: fit, evaluate or experiment
    traced: bool


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def unit(self, index, tag="", tracer=None) -> Unit:
        """Write one unit's inputs, then run and time its commands."""
        directory = os.path.join(OUT, self.workload.name, f"unit-{index:03d}{tag}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        rng, cli_seed = unit_seeds(self.seed, index)
        commands, truth = self.workload.prepare(directory, rng, cli_seed)
        gc.collect()
        if tracer:
            tracer.install()
        ok, first_seconds, sink = True, 0.0, io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for i, argv in enumerate(commands):
                    t = time.perf_counter()
                    code = msprobit.cli.main(argv)
                    if i == 0:
                        first_seconds = time.perf_counter() - t
                    self.attempted += 1
                    if code != 0:
                        self.failed += 1
                        ok = False
                        print(f"{argv[0]} exited {code}: {sink.getvalue()[-300:]}", file=sys.__stderr__)
        finally:
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        return Unit(directory, truth, ok, seconds, first_seconds, tracer is not None)

    def check(self, unit: Unit) -> bool:
        """Check a unit whose commands all succeeded; False if a check failed."""
        if not unit.ok:
            return False
        try:
            self.workload.check(unit.directory, unit.truth)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"{unit.directory}: {type(exc).__name__}: {exc}")
            return False
        return True


def same_files(a, b) -> bool:
    compare = filecmp.dircmp(a, b)
    if compare.left_only or compare.right_only or compare.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, compare.common_files, shallow=False)
    return not mismatch and not errors and all(
        same_files(os.path.join(a, d), os.path.join(b, d)) for d in compare.common_dirs
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    shutil.rmtree(os.path.join(OUT, workload.name), ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(workload, args.seed)
    metrics = {}

    started = time.perf_counter()
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(), "s")

    units = [runner.unit(0)]  # warm-up
    tracer = Tracer() if args.trace else None
    measured, index = 0.0, 1
    while measured < args.seconds:
        # traced runs time every seed untraced and traced, alternating order
        for tr in ([None, tracer] if index % 2 else [tracer, None]) if tracer else [None]:
            units.append(runner.unit(index, "t" if tr else "", tr))
            measured += units[-1].seconds
        index += 1
    timed = units[1:]
    walls = [u.seconds for u in timed if not u.traced]
    traced_walls = [u.seconds for u in timed if u.traced]
    units.append(runner.unit(1, "r"))  # the first timed unit's seed again
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not same_files(units[1].directory, units[-1].directory):
        runner.errors.append("unit 1 rerun with its seed wrote different files")
    checks_started = time.perf_counter()
    rates = []
    for unit in units:
        passed = runner.check(unit)
        if passed and tracer and hasattr(workload, "ess_rates") and unit in timed and not unit.traced:
            rates.append(workload.ess_rates(unit.directory, unit.first_seconds))
        shutil.rmtree(unit.directory)

    if tracer:
        tracer.write(os.path.join(OUT, f"trace-{workload.name}.csv"))
        metrics.update(layer_metrics(tracer.spans, len(traced_walls)))
        for key in ("ess_beta_per_s", "ess_gamma_per_s"):
            values = [r[key] for r in rates]
            metrics[f"sampler.{key}"] = (statistics.median(values) if values else 0.0, "1/s")
        untraced = statistics.median(walls)
        overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
        metrics["trace.wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / untraced, "ratio")
    else:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    print(f"reference_loop_s {reference_loop_seconds():.4f}")
    print(f"units {len(walls)} traced {len(traced_walls)} measured_s {measured:.2f} "
          f"run_s {time.perf_counter() - started:.2f} "
          f"checks_s {time.perf_counter() - checks_started:.2f}")
    print("unit_walls_s " + " ".join(f"{w:.3f}" for w in walls))
    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
