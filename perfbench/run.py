#!/usr/bin/env python3
"""Benchmark of the cyglue neck scan, its thread pool and the suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
there. Each workload is a closed loop: one process runs one round of
operations after another for ``--seconds`` (at least one round), checks
every operation's output against properties of the method, and prints
its metrics, the last line being one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the traced layers are wrapped
and the per-layer metrics are reported instead. ``--workload all`` runs
every workload in its own process and prints all of their metrics.

BLAS and OpenMP are pinned to one thread before numpy loads: with
OpenBLAS's default threads the timings spread widely and two scan
workers would run four threads on two cores (see README.md).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SCAN_T = (0.4, 0.25, 0.16, 0.1)
# criterion 9's scan: region_norms gets batches of 192-384 nodes
SMALL = {"link_level": (2, 2, 2), "n_sup_dirs": 4}
# batches of 1458-2048 nodes, the block size of criterion 7's scan
BLOCK = {"link_level": (3, 3, 3), "n_sup_dirs": 12}
# The suites workload runs these at the run's seed ...
SUITE_NAMES = ("pointwise", "cone-verify", "ale-verify", "thm52")
# ... and the moser suite at fixed seeds: it fails its own checks on some
# seeds (12 among 0-33), and a failure that comes and goes with the seed
# would make the share of failed operations differ between runs. Seed 0
# passes; seed 12 fails every time (trajectories leave the annulus) and
# is kept so that the fault shows in every round, counted in `failed`.
MOSER_RUNS = (("moser", 0), ("moser_seed12", 12))
KNOWN_FAULTS = {"moser_seed12"}

# scan: the glue-scan a round runs (None: none), with its worker count;
# suites: whether the round runs SUITE_NAMES and MOSER_RUNS. scan_pool is
# not in BENCHMARK.json: on this shared 2-core host its median, which
# needs both cores, moved by 28 % between sets of runs (see README.md).
WORKLOADS = {
    "scan_small": {"scan": SMALL, "workers": 1, "suites": False},
    "scan_block": {"scan": BLOCK, "workers": 1, "suites": False},
    "scan_pool": {"scan": BLOCK, "workers": 2, "suites": False},
    "suites": {"scan": None, "suites": True},
}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class SetupError(RuntimeError):
    pass


def load_cyglue() -> dict:
    """Import the package from this checkout's src/ and return its modules."""
    if not (SRC / "cyglue" / "__init__.py").is_file():
        raise SetupError(f"no cyglue package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyglue
    from cyglue import analysis, cli, cones, forms, g2, gluing, moser, su3
    if Path(cyglue.__file__).resolve().parent != (SRC / "cyglue").resolve():
        raise SetupError(f"imported cyglue from {cyglue.__file__}, "
                         f"not from {SRC}")
    return {"analysis": analysis, "cli": cli, "cones": cones,
            "forms": forms, "g2": g2, "gluing": gluing, "moser": moser,
            "su3": su3}


def setup(workload: str, seed: int) -> dict:
    """Import, build the geometries, fill the link-quadrature and
    multi-index caches the workload's rounds use, and warm up.

    The scans' warm-up is the structure recovery on the neck sup grid,
    which evaluates every kernel a scan row uses; a whole untimed scan
    would cost as much as a timed round. The suites' warm-up is one pass
    of SUITE_NAMES; an untimed moser run would again cost as much as a
    round.
    """
    mods = load_cyglue()
    cones, gl = mods["cones"], mods["gluing"]
    spec = WORKLOADS[workload]
    scan = spec["scan"]
    if spec["suites"]:
        for name in SUITE_NAMES:
            suite_run(mods, name, seed, OUT / workload / "warmup")
    if scan is not None:
        config = gl.GluingConfig(t=min(SCAN_T), seed=seed, n_radial=2,
                                 link_level=scan["link_level"],
                                 n_sup_dirs=scan["n_sup_dirs"])
        cone = cones.quotient_cone_z3()
        pert = cones.t6_z3_orbifold_patch(0).synthetic_perturbation(
            config.nu, config.conical_amplitude, seed=seed)
        glued = gl.build_glued(config, cone, cones.calabi_ale_o3(), pert)
        gl.nearly_cy_on_neck(glued)
        cones.link_quadrature(cone, *scan["link_level"])
    return mods


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only run ``setup``."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed:\n{proc.stderr}")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# operations and their checks

def suite_run(mods, command: str, seed: int, out_dir: Path, **settings):
    cli = mods["cli"]
    return cli.run(cli.RunConfig(command=command, seed=seed,
                                 out=str(out_dir), **settings))


def scan_run(mods, scan: dict, workers: int, seed: int, out_dir: Path):
    """One glue-scan: its report and the text of the scan.csv it wrote."""
    report = suite_run(mods, "glue-scan", seed, out_dir, t_list=SCAN_T,
                       n_radial=2, link_level=scan["link_level"],
                       n_sup_dirs=scan["n_sup_dirs"], workers=workers)
    return report, (out_dir / "scan.csv").read_text()


def round_operations(mods, workload: str, seed: int, out_dir: Path) -> list:
    """The (name, call) operations of one round; each call returns
    (report, scan.csv text or None)."""
    spec = WORKLOADS[workload]
    ops = []
    if spec["scan"] is not None:
        ops.append(("glue-scan", lambda: scan_run(
            mods, spec["scan"], spec["workers"], seed, out_dir)))
    if spec["suites"]:
        runs = [(name, name, seed) for name in SUITE_NAMES]
        runs += [(name, "moser", fixed) for name, fixed in MOSER_RUNS]
        for name, command, s in runs:
            ops.append((name, lambda command=command, s=s: (
                suite_run(mods, command, s, out_dir), None)))
    return ops


def check_operation(mods, name: str, report, text, scan, seed: int,
                    reference) -> list:
    failures = checks.check_reports({name: report})
    if text is not None:
        failures += checks.check_scan(text, scan["link_level"], seed,
                                      mods["gluing"])
        if reference is not None:
            failures += checks.check_same_csv(text, *reference)
    return failures


# ---------------------------------------------------------------------------
# one workload

def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Closed loop of rounds. A round runs every operation of the
    workload once and is timed as a whole; `attempted` and `failed`
    count operations, so each round adds the same ones. A new round
    starts only if a round of median length still fits in `seconds`."""
    spec = WORKLOADS[workload]
    setup_s = None if trace else measure_setup(workload, seed)
    mods = setup(workload, seed)
    out_dir = OUT / (workload + ("-trace" if trace else ""))
    out_dir.mkdir(parents=True, exist_ok=True)
    scan = spec["scan"]
    ops = round_operations(mods, workload, seed, out_dir)

    tracer = None
    if trace:
        tracer = Tracer(mods)
        tracer.install()

    walls, cpus = [], []
    attempted = failed = unexpected = 0
    reference = None
    suite_walls = {}
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) <= seconds):
        index = len(walls)
        if tracer is not None:
            tracer.begin_op(index)
        results = []
        w0, c0 = time.perf_counter(), time.process_time()
        for name, call in ops:
            try:
                results.append((name, call()))
            except Exception:
                traceback.print_exc()
                results.append((name, None))
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if tracer is not None:
            tracer.end_op()
        for name, result in results:
            attempted += 1
            if result is None:
                failures = [f"{name} raised"]
            else:
                report, text = result
                suite_walls.setdefault(name, {})[index] = report.wall_time_s
                failures = check_operation(mods, name, report, text, scan,
                                           seed, reference)
                if reference is None and text is not None:
                    reference = (text, "the first round's scan")
            for msg in failures:
                print(f"round {index}: {msg}", file=sys.stderr)
            if failures:
                failed += 1
                unexpected += name not in KNOWN_FAULTS
        print(f"round {index}: {walls[-1]:.3f} s wall, {cpus[-1]:.3f} s "
              f"cpu, {failed} of {attempted} operations failed so far",
              flush=True)

    if tracer is not None:
        metrics = tracer.metrics(suite_walls)
        tracer.write_jsonl(out_dir / "trace.jsonl")
        print(f"traced op_p50_s {statistics.median(walls):.4f}")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "op_cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    # the known fault's failures are counted but do not make the run wrong
    return {"correct": unexpected == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SetupError(f"workload {workload} exited "
                             f"{proc.returncode} without a result")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload} {name} {metric['value']:.6g} "
                  f"{metric['unit']}")
    # the pool must not change the numbers at the large batch size either
    suffix = "-trace" if trace else ""
    for msg in checks.check_same_csv(
            (OUT / f"scan_pool{suffix}" / "scan.csv").read_text(),
            (OUT / f"scan_block{suffix}" / "scan.csv").read_text(),
            "scan_block's for the same seed"):
        print(f"scan_pool: {msg}", file=sys.stderr)
        combined["correct"] = False
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
