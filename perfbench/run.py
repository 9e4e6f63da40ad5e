"""Benchmark of the sindykit command line on the shipped configs.

Run from the repository root:

    python3 perfbench/run.py --workload lorenz --seed 0 --seconds 10 --trace 0

One run drives ``sindykit.cli.main`` in this process, serially, with BLAS
pinned to one thread, on the workload's config (see workloads.py) with
its seeds shifted by ``--seed``.  It repeats the workload's command
sequence until ``--seconds`` have passed (at least once), each pass in a
fresh output directory, and checks what the commands wrote: every command
exits 0, every JSON artifact parses without NaN, every pass writes the
same bytes, and each model has the true model's states (for ``compare``:
curves that start at zero and a long run that stays on the attractor).
At seed 0 each model must also have exactly the true support and
coefficients within the workload's tolerance; at other seeds these
figures are reported only.

Set-up time is measured apart, as the median of several fresh interpreters
that import sindykit and load the config.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` a pass with every layer wrapped by spans.py runs before the
untraced ones; its artifacts must equal theirs byte for byte, and the
result carries the per-layer metrics.  The spans and a self-time table go
to ``perfbench/out/<run>/trace.json``.  Passes after the first in a process
also check that reruns write the same bytes.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``;
the line before it is a detail record with the environment, every
command's times and the accuracy figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from checks import (
    CommandRun, Tally, artifact_digests, coef_max_rel_err, compare_problems, digest_mismatches,
    load_model, strict_json, support_errors,
)
from spans import Tracer, TraceError, check_expected, installed, layer_metrics, write_trace
from workloads import WORKLOADS, Workload, command_argv, derive_config, true_model

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from sindykit.cli import load_config; load_config(sys.argv[2])")
ALL_COMMANDS = ("generate", "fit", "sweep", "compare")
MODEL_COMMANDS = ("fit", "sweep")  # the commands that write model.json


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the sindykit command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="shift of the config seeds (>= 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the workload until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def pin_threads() -> None:
    """One BLAS thread and sindykit's default serial fit; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SINDYKIT_THREADS", None)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(THREAD_VARS),
        "sindykit_threads": os.environ.get("SINDYKIT_THREADS", "unset"),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def measure_setup(config: Path) -> list[float]:
    """Seconds from interpreter start to config loaded, once per fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: waiting with one polls at up to 50 ms intervals, which would
        # quantize the measurement
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(config)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def run_pass(workload: Workload, cli_main, config: Path, pass_dir: Path,
             tracer: Tracer | None = None) -> tuple[list[CommandRun], int]:
    """Run the workload's commands once; returns their runs and the warnings raised."""
    pass_dir.mkdir(parents=True)
    runs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in workload.commands:
            argv = command_argv(workload, command, str(config), str(pass_dir))
            t0 = perf_counter()
            with tracer.span(f"cli.{command}") if tracer else nullcontext():
                try:
                    code, error = cli_main(argv), ""
                except Exception as exc:  # a raise is a failed command, not a failed benchmark
                    code, error = None, f"{type(exc).__name__}: {exc}"
            runs.append(CommandRun(command, perf_counter() - t0, code, error))
    return runs, len(caught)


def check_models(pass_dir: Path, workload: Workload, cfg: dict, seed: int,
                 problems: list[str]) -> tuple[int, float]:
    """Check what a pass wrote against the true model.

    Returns the support errors and the worst coefficient error over the
    models written; problems found are appended to ``problems``.
    """
    names, truth = true_model(cfg)
    errors, worst = 0, 0.0
    for command in MODEL_COMMANDS:
        if command not in workload.commands:
            continue
        path = pass_dir / command / "model.json"
        try:
            model = load_model(path)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{command}: unreadable model.json ({exc})")
            continue
        if model.state_names != names:
            problems.append(f"{command}: states {model.state_names}, expected {names}")
            continue
        errors += support_errors(model, truth)
        worst = max(worst, coef_max_rel_err(model, truth))
    if "compare" in workload.commands:
        try:
            problems += compare_problems(pass_dir / "compare")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"compare: unreadable output ({exc})")
    if seed == 0 and errors:
        problems.append(f"{errors} support errors at the default seed")
    if seed == 0 and worst > workload.coef_tolerance:
        problems.append(f"coefficient error {worst:.3g} above {workload.coef_tolerance}")
    return errors, worst


def check_json_artifacts(pass_dir: Path, problems: list[str]) -> None:
    for path in sorted(pass_dir.rglob("*.json")):
        try:
            strict_json(path.read_text())
        except ValueError as exc:
            problems.append(f"{path.relative_to(pass_dir)}: invalid JSON ({exc})")


def median_times(passes: list[list[CommandRun]]) -> dict[str, float]:
    return {run.command: statistics.median(p[i].seconds for p in passes)
            for i, run in enumerate(passes[0])}


def traced_pass(workload: Workload, cli_main, config: Path, run_dir: Path):
    """One pass with every layer traced; returns its command runs, tracer and digests.

    It runs first in the process, under the same cold start as the untraced
    end-to-end runs, so its layer times add up to theirs.
    """
    tracer = Tracer(run_dir.name)
    traced_dir = run_dir / "traced"
    with installed(tracer):
        runs, _ = run_pass(workload, cli_main, config, traced_dir, tracer)
    if not any(r.failed for r in runs):
        check_expected(tracer.spans, tracer.loose,
                       workload.expected_spans, workload.expected_counters)
    digests = artifact_digests(traced_dir)
    shutil.rmtree(traced_dir)
    write_trace(run_dir / "trace.json", tracer.spans, tracer.loose)
    return runs, tracer, digests


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    shipped_path = ROOT / "configs" / workload.config
    if not (ROOT / "src" / "sindykit" / "__init__.py").is_file() or not shipped_path.is_file():
        print(f"perfbench: no sindykit sources or configs/{workload.config} under {ROOT}",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from sindykit.cli import main as cli_main  # imports numpy, after the BLAS pin

    shipped = json.loads(shipped_path.read_text())
    if derive_config(shipped, 0) != shipped:
        print("perfbench: seed 0 does not reproduce the shipped config", file=sys.stderr)
        return 1
    cfg = derive_config(shipped, args.seed)
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.json"
    config.write_text(json.dumps(cfg, indent=2))

    setup = measure_setup(config)
    tally, problems, passes, n_warnings = Tally(), [], [], 0
    if args.trace:
        try:
            traced_runs, tracer, traced_digests = traced_pass(workload, cli_main, config, run_dir)
        except TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        tally.runs += traced_runs
    reference: dict[str, str] = {}
    errors, worst = 0, 0.0
    started = perf_counter()
    while not passes or perf_counter() - started < args.seconds:
        pass_dir = run_dir / f"pass{len(passes)}"
        runs, caught = run_pass(workload, cli_main, config, pass_dir)
        passes.append(runs)
        tally.runs += runs
        n_warnings += caught
        digests = artifact_digests(pass_dir)
        if len(passes) == 1:
            reference = digests
            check_json_artifacts(pass_dir, problems)
            errors, worst = check_models(pass_dir, workload, cfg, args.seed, problems)
        elif digest_mismatches(reference, digests):
            problems.append(f"pass {len(passes) - 1} differs from pass 0 in "
                            f"{digest_mismatches(reference, digests)}")
        shutil.rmtree(pass_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    times = median_times(passes)
    pipeline = statistics.median(sum(r.seconds for r in runs) for runs in passes)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "passes": len(passes), "setup_s": setup,
        "command_s": {r.command: [p[i].seconds for p in passes] for i, r in enumerate(passes[0])},
        "support_errors": errors, "coef_max_rel_err": worst, "warnings": n_warnings,
    }
    if args.trace:
        mismatch = digest_mismatches(reference, traced_digests)
        if mismatch:
            problems.append(f"traced artifacts differ from untraced ones in {mismatch}")
        traced = {r.command: r.seconds for r in traced_runs}
        detail["traced_command_s"] = traced
        detail["trace_overhead_pct"] = {c: 100 * (traced[c] / times[c] - 1) for c in traced}
        detail["trace_file"] = str((run_dir / "trace.json").relative_to(ROOT))
        metrics = layer_metrics(tracer.spans, tracer.loose)
        metrics.update({f"cli.{c}_s": (traced.get(c, 0.0), "s") for c in ALL_COMMANDS})
        # an upper bound: the untraced passes run after the traced one, warmed up
        metrics["trace.overhead_pct"] = (100 * (sum(traced.values()) / pipeline - 1), "%")
        metrics["check.support_errors"] = (errors, "count")
        metrics["check.coef_max_rel_err"] = (worst, "ratio")
        metrics["check.failed_ops"] = (tally.failed_share, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pipeline_s": (pipeline, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} commands failed")
    if args.seed != 0 and (errors or worst > workload.coef_tolerance):
        print(f"perfbench: seed {args.seed}: {errors} support errors, "
              f"coefficient error {worst:.3g} (reported, not failed)", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    detail["failed_ops"] = tally.failed_share
    detail["command_errors"] = [f"{r.command}: exit {r.exit_code} {r.error}".strip()
                                for r in tally.runs if r.failed]
    detail["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({"detail": detail, "result": result}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
