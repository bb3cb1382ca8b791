#!/usr/bin/env python3
"""The segxfer benchmark.

    python3 perfbench/run.py --workload hires96 --seed 0 --seconds 50 --trace 0

Runs from the repository root, in one process, with the BLAS thread count
fixed before numpy loads.  The workload's harness seeds (derived from
``--seed``) go through ``experiments.prepare_seed`` and
``experiments.finetune_variant``, each at least once and then round-robin
until ``--seconds`` have passed.  Outputs are checked on every seed.

``--trace 0`` reports the end-to-end metrics; set-up time comes from
separate probe processes (``probe.py``).  ``--trace 1`` alternates untraced
and traced seeds and reports per-layer metrics of the traced ones, plus the
tracing overhead.  The last stdout line is the JSON result; a full record
and the spans of the last traced seed are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "seed_s": "s",
    "acte_img_per_s": "img/s",
    "train_img_per_s": "img/s",
    "eval_img_per_s": "img/s",
    "peak_rss_mb": "MB",
    "miou_tmt": "ratio",
    "miou_vanilla": "ratio",
    "region_auc": "ratio",
}

STAGE_FIELDS = ("seed", "seed_s", "prepare_s", "pretrain_s", "train_s", "train_images",
                "eval_s", "eval_images", "acte_images")

_COUNT_SUFFIXES = ("_calls", "_steps", ".images", ".spans", ".fallback_rows")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    if name == "transferability.pad":
        return "d_A"
    if name == "segmodel.final_train_loss":
        return "loss"
    return "ratio"


def _median(values) -> float:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return float(statistics.median(values)) if values else math.nan


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from spawning a probe process until it reports the package
    imported, the config validated and every image generated."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(probes):
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Reproducibility record
# ---------------------------------------------------------------------------


def _blas_runtime_threads() -> int | None:
    import numpy as np

    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": BLAS_THREADS, "threads_runtime": _blas_runtime_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_reps(workload, seed: int, seconds: float, traced: bool):
    """Untraced seeds (and, when traced, a traced seed after each), cycling
    over the harness seeds until the time is up.

    Returns the harness seeds, the untraced and traced outcomes, and the
    outcomes that only count towards correctness.  The first seed in a
    process runs slower while the allocator grows; the traced run has too
    few seeds for a median to absorb that, so it starts with an extra seed.
    """
    from seedrun import run_seed

    config = workload.run_config()
    seeds = workload.harness_seeds(seed)
    start = perf_counter()
    untimed = [run_seed(workload, config, seeds[0], recheck=True)] if traced else []
    min_reps = 1 if traced else len(seeds)
    plain, traced_out = [], []
    loop_start = perf_counter()
    rep = 0
    while True:
        harness_seed = seeds[rep % len(seeds)]
        plain.append(run_seed(workload, config, harness_seed,
                              recheck=rep == 0 and not traced))
        if traced:
            traced_out.append(run_seed(workload, config, harness_seed, traced=True))
        rep += 1
        now = perf_counter()
        if rep >= min_reps and now - start + (now - loop_start) / rep > seconds:
            return seeds, plain, traced_out, untimed


def check_repeats(outcomes) -> None:
    """Reruns of a harness seed, traced or not, must reproduce its quality."""
    first = {}
    for o in outcomes:
        ref = first.setdefault(o.seed, o)
        if o.quality != ref.quality:
            o.operations[0].problems.append(
                f"quality {o.quality} differs from an earlier run of seed {o.seed}")


def end_to_end(plain, setup_times, n_seeds: int) -> dict[str, float]:
    distinct = plain[:n_seeds]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _median(setup_times),
        "seed_s": _median(o.seed_s for o in plain),
        "acte_img_per_s": _median(o.acte_images / (o.prepare_s - o.pretrain_s)
                                  for o in plain),
        "train_img_per_s": _median(o.train_images / o.train_s for o in plain if o.train_s),
        "eval_img_per_s": _median(o.eval_images / o.eval_s for o in plain if o.eval_s),
        "peak_rss_mb": peak_kb / 1024.0,
        "miou_tmt": _median(o.quality.get("miou_tmt") for o in distinct),
        "miou_vanilla": _median(o.quality.get("miou_vanilla") for o in distinct),
        "region_auc": _median(o.quality.get("region_auc") for o in distinct),
    }


def per_layer(plain, traced_out) -> dict[str, float]:
    from tracing import median_metrics

    m = median_metrics([o.layers for o in traced_out])
    m["trace.untraced_seed_s"] = _median(o.seed_s for o in plain)
    m["trace.overhead_s"] = float(statistics.median(
        t.seed_s - p.seed_s for p, t in zip(plain, traced_out)))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "segxfer" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    # numpy loads from here on, after the BLAS settings above.
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    setup_times = [] if traced else measure_setup(workload.name, args.seed)
    seeds, plain, traced_out, untimed = run_reps(workload, args.seed, args.seconds, traced)
    outcomes = untimed + plain + traced_out
    check_repeats(outcomes)
    if traced:
        values, unit_of = per_layer(plain, traced_out), layer_unit
    else:
        values, unit_of = end_to_end(plain, setup_times, len(seeds)), END_TO_END_UNITS.get

    ops = [op for o in outcomes for op in o.operations]
    problems = [f"seed {o.seed} {op.name}: {p}"
                for o in outcomes for op in o.operations for p in op.problems]
    failed = sum(1 for op in ops if op.problems)
    correct = failed == 0 and all(math.isfinite(v) for v in values.values())
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "harness_seeds": seeds,
        "seconds": args.seconds, "trace": args.trace,
        "untraced_seeds_run": len(plain), "traced_seeds_run": len(traced_out),
        "seeds": [{k: getattr(o, k) for k in STAGE_FIELDS} for o in plain],
        "traced_seed_s": [o.seed_s for o in traced_out],
        "quality": {o.seed: o.quality for o in reversed(outcomes)},
        "setup_s": setup_times,
        "environment": environment_record(),
        "problems": problems,
    }
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("record " + json.dumps(record))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"record": record, "metrics": metrics}, f, indent=1)
    if traced_out:
        traced_out[-1].tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
