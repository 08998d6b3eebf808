"""Training and evaluation benchmark for `cst`.

    python3 benchmarks/run.py --workload train_mixed_c32 [--seed N]
        [--seconds 30] [--trace 0|1]

Run from the repository root. Set-up builds the seeded data sets and every
token bundle; then whole rounds (train, evaluate workers=1, evaluate
workers=2) repeat until --seconds have passed. All checks in checks.py run
afterwards, outside the timed part. With --trace 0 the end-to-end metrics of
BENCHMARK.json are printed (medians over rounds), with --trace 1 the
per-layer ones, from traced rounds that alternate with untraced ones. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

import os
import sys
import time

_SCRIPT_START = time.perf_counter()
# One BLAS thread, fixed before numpy loads; evaluation's own fan-out is the
# only parallelism (at most WORKERS Python threads).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start stamp;
    since script start where /proc is unavailable."""
    try:
        stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(stat[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0.0 < age < 600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _SCRIPT_START


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "cst").rglob("*.py")))


def end_to_end(inputs, rounds, setup_s) -> dict:
    """Medians over the rounds. Peak RSS is read in the first round after
    its workers=1 evaluation: what threaded evaluation adds on top depends
    on how the two threads interleave (921-1003 MB in three runs of one
    eval_image_2w1s seed), so it is left out to keep the figure steady."""
    episodes = inputs.workload.eval_episodes
    out = {"setup_s": setup_s}
    if rounds[0].serial_peak_rss_mb:
        out["peak_rss_mb"] = rounds[0].serial_peak_rss_mb
    train_s = [r.train_s for r in rounds if r.train_s is not None]
    if train_s:
        out["train_s"] = statistics.median(train_s)
    # The workers=2 evaluation is checked and traced but not timed: on a
    # shared 2-core machine its rate spread 17-27% across runs.
    times = [r.eval_s[1] for r in rounds if 1 in r.eval_s]
    if times:
        out["eval_w1_episodes_per_s"] = episodes / statistics.median(times)
    return out


def per_layer(setup_trace, traced, untraced) -> dict:
    """Set-up totals plus the mean of one traced round."""
    n = len(traced)
    out = {k: setup_trace.get(k, 0) + sum(s[k] for _, s in traced) / n
           for k in traced[0][1]}
    lookups = sum(s.get("model.forward_volume_calls", 0) for _, s in traced)
    builds = sum(s.get("model.prepare_volume_calls", 0) for _, s in traced)
    out["trainer.volume_cache_hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0
    gt = pseudo = eval_backward = 0
    for rnd, _ in traced:
        eval_backward += rnd.eval_backward_calls
        train_counters = [rnd.result.counters] if rnd.result else []
        for c in train_counters + list(rnd.counters.values()):
            gt += c.gt_mask_model_reads
            pseudo += c.pseudo_masks_generated
    out["trainer.gt_mask_reads"] = gt / n
    out["trainer.pseudo_masks_generated"] = pseudo / n
    out["trainer.evaluate_backward_calls"] = eval_backward / n
    ckpt = traced[0][0].out_dir / "best.ckpt"
    out["params.checkpoint_bytes"] = ckpt.stat().st_size if ckpt.exists() else 0
    out["package.src_lines"] = src_lines()
    # untraced[0] is the process's first round, which runs cold.
    out["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in traced)
                               - statistics.median(r.wall_s for r in untraced[1:]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cst" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"benchmark: run from a checkout holding src/cst and "
              f"BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    import cst
    if Path(cst.__file__).resolve().parent != (SRC / "cst").resolve():
        print(f"benchmark: imported cst from {cst.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    setup_tracer = Tracer().install() if args.trace else None
    inputs = workloads.build_inputs(workload, seed)
    setup_trace = {}
    if setup_tracer:
        setup_tracer.uninstall()
        setup_trace = setup_tracer.snapshot()
    setup_s = process_age()

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_ROOT))
    rounds, traced, untraced = [], [], []
    try:
        # In trace mode untraced and traced rounds take turns, untraced
        # first; the difference of their medians is the trace overhead.
        start = time.perf_counter()
        while (len(rounds) < 1 + 2 * args.trace
               or time.perf_counter() - start < args.seconds):
            tracer = (Tracer().install()
                      if args.trace and len(rounds) % 2 == 1 else None)
            try:
                rnd = workloads.run_round(inputs, tmp / f"round{len(rounds)}",
                                          tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            rounds.append(rnd)
            if tracer:
                traced.append((rnd, tracer.snapshot()))
            else:
                untraced.append(rnd)
        measured = (per_layer(setup_trace, traced, untraced) if args.trace
                    else end_to_end(inputs, rounds, setup_s))
        problems = checks.check_run(inputs, rounds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in measured:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}

    env = environment()
    print(f"workload {workload.name}  seed {seed}  trace {args.trace}  "
          f"round walls (s): {' '.join(f'{r.wall_s:.3f}' for r in rounds)}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = workloads.OPS_PER_ROUND * len(rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
