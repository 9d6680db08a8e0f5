"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload wide_infer --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, never from an installed copy.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics.  The line before it is a
report with the machine stamp and the detail behind each figure.  Set-up and
the measuring window run in this one process; only the extra set-up samples
for ``setup_s`` run in child processes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / ".runs"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: on a 2-core guest, two OpenBLAS threads made one N=200
# wide_infer fit about 2.8x slower (9.1 s against 3.3 s).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # setup_s is the median of this many set-ups, one in this process (untraced runs)
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source beside it)."""


def _import_package():
    src = ROOT / "src"
    if not (src / "tasc" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'tasc'}")
    sys.path.insert(0, str(src))
    import tasc

    if Path(tasc.__file__).resolve().parent != (src / "tasc").resolve():
        raise BenchError(f"imported tasc from {tasc.__file__}, not from {src}")
    return tasc


def timed_setup(workload: str, seed: int, size: str, workdir: Path) -> tuple[float, dict]:
    """Import the package and build the workload's inputs; returns (seconds, state)."""
    start = perf_counter()
    _import_package()
    state = WORKLOADS[workload][0](seed, workdir, size)
    return perf_counter() - start, state


def _setup_in_child(args, workdir: Path) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1", "--size", args.size,
        "--setup-only", str(workdir),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up child failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles, never below the median: with fewer than
    2 * TAIL_BEYOND samples no percentile above the median qualifies, and the
    median (percentile 50) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50


def stamp(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tasc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def end_to_end(fits, elapsed: float, setup_samples: list[float]) -> tuple[dict, dict]:
    times = [f.seconds for f in fits]
    ok = [f for f in fits if f.ok]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "fit_s_p50": (statistics.median(times), "s"),
        "fit_s_tail": (tail_s, "s"),
        "fits_per_s": (len(ok) / elapsed, "1/s"),
        "cf_rmse_p50": (statistics.median(e for f in ok for e in f.rmses) if ok else -1.0, "outcome"),
        "ok_frac": (len(ok) / len(fits), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "fits": len(fits),
        "fail_frac": 1.0 - len(ok) / len(fits),
        "fit_s_tail_percentile": tail_pct,
        "fit_s_tail_samples": len(times),
        "timed_wall_s": elapsed,
        "setup_s_samples": setup_samples,
        "fit_s": times,
    }
    return metrics, detail


def overhead(fits) -> float:
    """Median over consecutive (untraced, traced) unit pairs of traced / untraced time, minus one."""
    pairs = [(a.seconds, b.seconds) for a, b in zip(fits[::2], fits[1::2]) if not a.traced and b.traced]
    return statistics.median(b / a for a, b in pairs) - 1.0


def per_layer(tracer: Tracer, all_fits, state: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced units, per traced fit unless named otherwise."""
    fits = [f for f in all_fits if f.traced]
    n = len(fits)
    tot = tracer.totals()

    def get(name: str, key: str) -> float:
        return tot[name][key] if name in tot else 0.0

    def per_step(name: str) -> float:
        steps = tracer.steps[name]
        return get(name, "busy_s") / steps * 1e6 if steps else 0.0

    em_fits = [f for f in all_fits if f.capped is not None]
    evaluate_self = sum(get(s, "self_s") for s in ("evaluate.method_sweep", "evaluate.fit_predict")) / n
    evaluate_self += statistics.fmean(f.lead_s for f in all_fits)
    raw = {
        "ssm.forward.calls": (get("ssm.forward", "calls") / n, "count"),
        "ssm.forward.busy_s": (get("ssm.forward", "busy_s") / n, "s"),
        "ssm.forward.step_us": (per_step("ssm.forward"), "us"),
        "ssm.forward_missing.step_us": (per_step("ssm.forward_missing"), "us"),
        "ssm.smooth_pass.calls": (get("ssm.smooth_pass", "calls") / n, "count"),
        "ssm.smooth_pass.busy_s": (get("ssm.smooth_pass", "busy_s") / n, "s"),
        "ssm.smooth_pass.step_us": (per_step("ssm.smooth_pass"), "us"),
        "ssm.params_validate.calls": (get("ssm.params_validate", "calls") / n, "count"),
        "ssm.params_validate.busy_s": (get("ssm.params_validate", "busy_s") / n, "s"),
        "numeric.spd_cholesky.calls": (get("numeric.spd_cholesky", "calls") / n, "count"),
        "numeric.spd_cholesky.busy_s": (get("numeric.spd_cholesky", "busy_s") / n, "s"),
        "numeric.spd_solve.calls": (get("numeric.spd_solve", "calls") / n, "count"),
        "numeric.spd_solve.busy_s": (get("numeric.spd_solve", "busy_s") / n, "s"),
        "numeric.jitter_events": (tracer.counts["numeric.jitter_events"] / n, "count"),
        "engine.em_pre.busy_s": (get("engine.em_pre", "busy_s") / n, "s"),
        "engine.em_pre.self_s": (get("engine.em_pre", "self_s") / n, "s"),
        "engine.em.iters_per_fit": (get("engine.m_step", "calls") / n, "count"),
        "engine.em.cap_frac": (sum(f.capped for f in em_fits) / len(em_fits) if em_fits else 0.0, "frac"),
        "engine.em.restart_failures": (tracer.counts["engine.em.restart_failures"] / n, "count"),
        "engine.accumulate_stats.busy_s": (get("engine.accumulate_stats", "busy_s") / n, "s"),
        "engine.m_step.self_s": (get("engine.m_step", "self_s") / n, "s"),
        "engine.init_params.busy_s": (get("engine.init_params", "busy_s") / n, "s"),
        "engine.infer_pass.self_s": (get("engine.tasc_infer", "self_s") / n, "s"),
        "baselines.sc_fit.calls": (get("baselines.sc_fit", "calls") / n, "count"),
        "baselines.sc_fit.busy_s": (get("baselines.sc_fit", "busy_s") / n, "s"),
        "baselines.rsc_fit.self_s": (get("baselines.rsc_fit", "self_s") / n, "s"),
        "baselines.hsvt.busy_s": (get("baselines.hsvt", "busy_s") / n, "s"),
        "simulate.simulate.busy_s": (get("simulate.simulate", "busy_s") / n, "s"),
        "simulate.setup.busy_s": (state["simulate_s"], "s"),
        "panel.load_csv.busy_s": (get("panel.load_csv", "busy_s") / n, "s"),
        "panel.bytes_read": (statistics.fmean(f.bytes_read for f in fits), "B"),
        "cli.main.self_s": (get("cli.main", "self_s") / n, "s"),
        "cli.artifact_bytes": (statistics.fmean(f.artifact_bytes for f in fits), "B"),
        "evaluate.self_s": (evaluate_self, "s"),
        "trace.overhead_frac": (overhead(all_fits), "frac"),
        "trace.fits": (n, "count"),
    }
    fit_s = sum(f.seconds for f in fits)
    shares = {
        name: tot[name]["busy_s"] / fit_s
        for name in tot
        if name.split(".")[0] in ("ssm", "engine", "baselines", "numeric", "simulate")
    }
    detail = {"traced_fits": n, "untraced_fits": len(all_fits) - n, "busy_share_of_fit_time": shares}
    return raw, detail


def run(args) -> dict:
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = RUNS_DIR / run_id
    try:
        setup_s, state = timed_setup(args.workload, args.seed, args.size, workdir / "main")
        run_window = WORKLOADS[args.workload][1]
        tracer = Tracer(run_id, alternate=bool(args.trace))
        if not args.trace:
            samples = [setup_s] + [
                _setup_in_child(args, workdir / f"child{k}") for k in range(1, SETUP_SAMPLES)
            ]
            start = perf_counter()
            all_fits = run_window(state, tracer, args.seconds, args.seed)
            metrics, detail = end_to_end(all_fits, perf_counter() - start, samples)
        else:
            all_fits = run_window(state, tracer, args.seconds, args.seed)
            metrics, detail = per_layer(tracer, all_fits, state)
            tracer.write(RUNS_DIR / f"{args.workload}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [f for f in all_fits if not f.ok]
    detail["failures"] = sorted({f.error for f in failed})[:10]
    report = {"workload": args.workload, "trace": args.trace, "stamp": stamp(args.seed), **detail}
    result = {
        "correct": not failed,
        "attempted": len(all_fits),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    return {"report": report, "result": result}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # read once, when numpy is first imported during set-up
        os.environ[var] = str(BLAS_THREADS)
    try:
        if args.setup_only:
            setup_s, _ = timed_setup(args.workload, args.seed, args.size, Path(args.setup_only))
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
