"""The refdoc benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload train|cv-nb|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run measures its workload for S seconds in whole rounds, checks the
program's outputs, appends a record (machine, input fingerprints, raw
samples, metrics) to perfbench/results/runs.jsonl, and prints as its last
line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
Compare mode prints one row per workload and metric from two such files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import common
import inputs
import stats
import tracer as tracing

SPEC_PATH = inputs.ROOT / "BENCHMARK.json"
# Fixed model-file timestamp: fits with one seed must write identical bytes.
SOURCE_DATE_EPOCH = "1700000000"


def _blas():
    """OpenBLAS version and the thread count it runs with, best effort."""
    import ctypes
    import numpy as np
    version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return version, threads


def machine():
    import numpy
    import scipy
    version, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((inputs.SRC / "refdoc").rglob("*.py"))),
    }


def per_layer(spec, outcome):
    """Every per-layer metric of the spec: a derived value, or a span
    figure `<span>.calls|ms|self_ms` per operation, 0 where the workload
    never enters that layer."""
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        span, _, kind = name.rpartition(".")
        if name in common.DERIVED:
            value = outcome.derived.get(name, 0.0)
        elif span in tracing.SPAN_NAMES and kind in ("calls", "ms", "self_ms"):
            value = outcome.layers.get(span, {}).get(kind, 0.0)
        else:
            raise ValueError(f"per-layer metric {name!r} names no span figure")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def end_to_end(spec, outcome):
    """Every end-to-end metric of the spec; each workload measures all of
    them, and none may be missing or read 0."""
    out = {}
    for m in spec["end_to_end"]:
        value = outcome.metrics.get(m["name"])
        if not value:
            raise RuntimeError(f"end-to-end metric {m['name']!r} is {value!r}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run_workload(args, spec):
    import workload_cvnb
    import workload_serve
    import workload_train
    modules = {"train": workload_train, "cv-nb": workload_cvnb,
               "serve": workload_serve}
    common.RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=common.RESULTS))
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    try:
        ctx = common.Context(seed=args.seed, seconds=args.seconds,
                             trace=bool(args.trace), workdir=workdir)
        outcome = modules[args.workload].run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(spec, outcome) if args.trace else end_to_end(spec, outcome)
    line = {"correct": not outcome.problems, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "machine": machine(), "inputs": outcome.inputs,
              "problems": outcome.problems, "samples": outcome.samples,
              "layers": outcome.layers, "derived": outcome.derived,
              **line}
    with open(common.RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line, sort_keys=True))


def compare(base_path, new_path, spec):
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    for trace in (0, 1):
        rows = stats.compare_rows([r for r in base if r["trace"] == trace],
                                  [r for r in new if r["trace"] == trace], specs)
        if rows:
            print("end-to-end (untraced runs)" if trace == 0
                  else "per-layer (traced runs)")
            print(stats.format_rows(rows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("train", "cv-nb", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        compare(*args.compare, spec)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    inputs.add_src_path()
    run_workload(args, spec)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(2)
