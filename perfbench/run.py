"""Benchmark harness: one workload, one process, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scale_fit --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's pass until ``--seconds`` have elapsed
(at least twice) with no instrument armed, and reports the end-to-end
metrics as medians over passes.  ``--trace 1`` alternates two untraced and
two traced passes, and reports the per-layer metrics of the traced passes.
The last line of standard output is the JSON result; the lines before it
list the workload's own metrics by name.  Spans and the run fingerprint are
written under ``perfbench/out/``.

Exit codes: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the run is refused before measuring
(no ``src/repro`` tree, a non-numpy ``REPRO_BACKEND``, multi-threaded
BLAS, or no latency limit in ``BENCHMARK.json``).
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  The serving workload runs a
# generator thread and the service worker; BLAS threads on top of them
# would outnumber two CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up repeats until both are reached; setup_s is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
MIN_PASSES = 2
TRACED_PASSES = 2

#: Work counters besides ``*_calls``; traced passes must repeat them exactly.
EXACT_COUNTERS = (
    "discrete.cd_rows", "discrete.cd_changed", "streaming.fold_in",
    "streaming.partial_refit", "streaming.full_refit", "robust.recoveries",
)

def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def latency_limit_ms(spec: dict) -> float | None:
    """The p99 limit behind max_ok_rps, read from serve_openloop's why."""
    for workload in spec.get("workloads", []):
        if workload.get("name") == "serve_openloop":
            match = re.search(r"p99 limit (\d+(?:\.\d+)?) ms", workload["why"])
            if match:
                return float(match.group(1))
    return None


def blas_threads():
    """Threads of numpy's OpenBLAS, asked of the library itself."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int, threads) -> dict:
    import numpy

    from repro.bench import machine_fingerprint

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        **machine_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "commit": git_commit(),
        "seed": seed,
    }


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload, setup_times, passes, tally) -> dict:
    return {
        "setup_s": median(setup_times),
        "work_s": median(p.work_s for p in passes),
        "p50_ms": workload.run_p50_s(passes) * 1e3,
        "acc": median(p.acc for p in passes),
        "nmi": median(p.nmi for p in passes),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "success_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    }


def exact(name: str, workload) -> bool:
    if name in getattr(workload, "timing_dependent", ()):
        return False
    return name.endswith("_calls") or name in EXACT_COUNTERS


def run_pass(workload, tally):
    from repro.robust.policy import collect_recoveries

    tick = time.perf_counter()
    with collect_recoveries() as events:
        result = workload.run_pass(tally)
    result.counters["robust.recoveries"] = len(events)
    return result, time.perf_counter() - tick


def check_repeats(passes, tally, what: str) -> None:
    for i, p in enumerate(passes[1:], start=1):
        tally.op(
            None if p.digest == passes[0].digest else
            f"nondeterminism: {what} pass {i} outputs differ from pass 0"
        )


def timed_run(workload, seconds: float, tally) -> list:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, tally)[0])
    check_repeats(passes, tally, "untraced")
    return passes


def traced_run(workload, tally, spans_path: Path):
    from spans import SpanRecorder, layer_metrics, write_spans

    # Untraced and traced passes alternate, so first-call costs and drift
    # in machine speed fall on both sides of trace.overhead_s.
    plain, plain_walls = [], []
    recorders, results, walls = [], [], []
    for _ in range(TRACED_PASSES):
        result, wall = run_pass(workload, tally)
        plain.append(result)
        plain_walls.append(wall)
        with SpanRecorder() as recorder:
            result, wall = run_pass(workload, tally)
        recorders.append(recorder)
        results.append(result)
        walls.append(wall)
    check_repeats([*plain, *results], tally, "traced")
    per_pass = [
        layer_metrics(r, res) for r, res in zip(recorders, results)
    ]
    metrics = {}
    for name, first in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if exact(name, workload):
            tally.op(
                None if all(v == first for v in values) else
                f"nondeterminism: work counter {name} = {values} across "
                f"traced passes"
            )
            metrics[name] = first
        else:
            metrics[name] = median(values)
    metrics["trace.overhead_s"] = median(walls) - median(plain_walls)
    write_spans(spans_path, recorders)
    return metrics


def number(value: float) -> float:
    # A failed operation's latency is infinite; JSON has no infinity.
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return refuse(f"no repro source tree under {src}")
    backend = os.environ.get("REPRO_BACKEND")
    if backend and backend != "numpy":
        return refuse(f"REPRO_BACKEND={backend!r}; the benchmark measures numpy")
    spec = load_spec()
    limit = latency_limit_ms(spec)
    if limit is None:
        return refuse("BENCHMARK.json names no 'p99 limit <N> ms' for serve_openloop")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        return refuse(f"repro imported from {repro.__file__}, not {src}")
    threads = blas_threads()
    if threads not in (None, 1):
        return refuse(f"BLAS runs {threads} threads; the benchmark needs 1")

    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        return refuse(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed, limit)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        tick = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - tick)

    tally = Tally()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = traced_run(workload, tally, OUT / f"{stem}.spans.jsonl")
        named = []
        listed = spec["per_layer"]
    else:
        passes = timed_run(workload, args.seconds, tally)
        values = end_to_end(workload, setup_times, passes, tally)
        named = workload.named(passes)
        listed = spec["end_to_end"]
        print("# pass work_s " + " ".join(f"{p.work_s:.4f}" for p in passes))
    units = {m["name"]: m["unit"] for m in listed}
    tally.op(
        None if set(values) == set(units) else
        f"metrics {sorted(set(values) ^ set(units))} are not both measured "
        f"and listed in BENCHMARK.json"
    )
    metrics = {name: (values[name], units.get(name, "")) for name in values}

    info = fingerprint(args.seed, threads)
    correct = tally.failed == 0
    print(f"# workload {args.workload}  fingerprint {json.dumps(info)}")
    for name, value, u in named:
        print(f"  {name:<22} {value:14.6g} {u}")
    for name, (value, u) in metrics.items():
        print(f"  {name:<22} {value:14.6g} {u}")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": number(value), "unit": u}
            for name, (value, u) in metrics.items()
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps({
        "fingerprint": info,
        "named": {name: {"value": number(v), "unit": u} for name, v, u in named},
        "problems": tally.problems,
        **result,
    }, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
