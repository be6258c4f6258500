"""Run one armsentinel benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,guard,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ./src. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; --trace 0 gives the end-to-end metrics
and --trace 1 the per-layer ones. Exit status: 0 when every output check
passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median

# Pinned, not inherited: two OpenBLAS threads on two cores gave no faster
# median step or frame and a much wider tail than one.
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"


def machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": BLAS_THREADS,
            "blas_threads_in_effect": blas_threads_in_effect()}


def blas_threads_in_effect() -> int | None:
    """Ask the OpenBLAS that NumPy loaded for its thread count, if it is one."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def end_to_end(res) -> dict[str, float]:
    return {
        "setup_s": median(res.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pairs_per_s": res.pairs / res.busy_s,
        "latency_ms_p50": median(res.unit_ms),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "guard", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "armsentinel" / "__init__.py").is_file():
        print(f"error: no armsentinel package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import metrics
    import workloads
    from tracing import Tracer, nearest_rank

    info = machine(args.seed)
    if info["blas_threads_in_effect"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {info['blas_threads_in_effect']} threads, "
              f"pinned {BLAS_THREADS}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, work)
    except Exception as exc:  # a raising program is a failed run, not a crash
        res = workloads.Result(attempted=1)
        res.fail(f"{args.workload}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(info))
    print("notes " + json.dumps(res.notes))
    print(f"units {len(res.unit_ms)} pairs {res.pairs} busy_s {res.busy_s:.3f} "
          f"setups {len(res.setup_s)}")
    for problem in res.problems[:20]:
        print("FAILED " + problem)
    if len(res.problems) > 20:
        print(f"FAILED ... and {len(res.problems) - 20} more")

    correct = not res.problems and res.failed == 0
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    if correct:
        print(f"tail latency_ms_p{metrics.TAIL_Q * 100:g} "
              f"{nearest_rank(res.unit_ms, metrics.TAIL_Q):.4f} ms over "
              f"{len(res.unit_ms)} units (reported, not a metric)")
        if tracer is None:
            values = end_to_end(res)
            units = metrics.END_TO_END
        else:
            values = metrics.per_layer(tracer, res.unit_pairs,
                                       res.traced_ms, res.untraced_ms, res.layer)
            units = metrics.PER_LAYER
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
            print(f"trace overhead {values['trace.overhead_ms']:.4f} ms per unit "
                  f"(traced p50 {median(res.traced_ms):.4f}, "
                  f"untraced p50 {median(res.untraced_ms):.4f})")
        for name, value in values.items():
            print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
