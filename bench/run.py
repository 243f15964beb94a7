"""qp2d benchmark: one seeded workload per process, a closed loop with one
caller, outputs checked after the timed phase.

    python3 bench/run.py --workload curve-l2 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the run's provenance and the figures that are not
metrics (rejection and failure shares, the tail call time).  The exit code is
1 when any output fails its check and 2 when qp2d's sources are missing.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS/OpenMP thread: the plain single-threaded baseline, and on a shared
# two-core machine a threaded dense oracle's timing moved by ~30% between
# runs.  Set before numpy is imported, so every library sees it.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 5
READY = "ready"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the bench's own tests"
    )
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print a line and exit (timed by the parent for setup_s)",
    )
    return ap.parse_args(argv)


def import_qp2d():
    """Put this checkout's sources first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "qp2d", "__init__.py")):
        print(f"qp2d sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qp2d

    if os.path.dirname(os.path.dirname(os.path.abspath(qp2d.__file__))) != SRC:
        sys.exit(f"imported qp2d from {qp2d.__file__}, not from {SRC}")


def setup_seconds(args) -> list[float]:
    """Wall time from process start to "ready" of fresh set-up processes."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        out.append(dt)
    return out


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qp2d")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(
            os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
        ),
        "machine": platform.machine(),
    }


def tail(durations: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten calls
    beyond it; None below 20 calls."""
    n = len(durations)
    if n < 20:
        return None
    ordered = sorted(durations)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_qp2d()
    from workloads import REJECTIONS, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(REJECTIONS)
        recorder.install()

    # timed phase: one caller, next call only after the previous returns.
    # The run's distinct inputs are cycled, so every input is timed several
    # times; its best time discounts the slow spells of a shared host.
    inputs = wl.inputs()
    times: list[list[float]] = [[] for _ in inputs]
    outputs: list = [None] * len(inputs)
    units = rejected = failed_units = 0
    solved = [0] * len(inputs)
    failures: list[str] = []
    rejections: dict[str, int] = {}
    calls = 0
    t0 = time.perf_counter()
    while calls < len(inputs) or time.perf_counter() - t0 < args.seconds:
        i = calls % len(inputs)
        calls += 1
        if recorder is not None:
            recorder.item = i
        c0 = time.perf_counter()
        try:
            out = wl.run(inputs[i])
            status = "ok"
        except REJECTIONS as exc:
            status = type(exc).__name__
        except Exception:
            status = "error"
            failures.append(f"input {i}: " + traceback.format_exc(limit=4))
        times[i].append(time.perf_counter() - c0)
        if status == "ok":
            n, rej, solved[i] = wl.units(inputs[i], out)
            if outputs[i] is None:
                outputs[i] = out
            elif wl.fingerprint(out) != wl.fingerprint(outputs[i]):
                failures.append(f"input {i}: a repeat gave a different output")
                failed_units += n
        elif status == "error":
            n, rej = 1, 0
            failed_units += 1
        else:
            n, rej = 1, 1
            rejections[status] = rejections.get(status, 0) + 1
        units += n
        rejected += rej
    timed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()

    # output gate, outside the timed phase, once per distinct input
    done = [(inputs[i], out) for i, out in enumerate(outputs) if out is not None]
    for item, out in done:
        msgs = wl.check(item, out)
        failures.extend(msgs)
        failed_units += len(msgs)
    for _, msg in wl.finish(done):
        failures.append(msg)
        failed_units += 1
    best = [min(t) for t in times]
    # a rejected input returns early; timing it would reward rejections
    timed_inputs = [i for i, n in enumerate(solved) if n] or range(len(inputs))

    detail = {
        "workload": args.workload,
        "unit": wl.unit,
        "call": wl.call,
        "calls": calls,
        "inputs": len(inputs),
        "best_ms": [round(1e3 * b, 3) for b in best],
        "call_ms": [[round(1e3 * d, 3) for d in t] for t in times],
        "timed_s": timed,
        "fail_frac": failed_units / units,
        "reject_frac": rejected / units,
        "rejections": rejections,
        "provenance": provenance(args),
    }
    tl = tail([d for t in times for d in t])
    if tl is not None:
        detail["call_tail_pct"], detail["call_tail_ms"] = tl[0], 1e3 * tl[1]

    if recorder is not None:
        import spans

        metrics = spans.layer_metrics(
            recorder, timed, spans.span_cost(REJECTIONS)
        )
        units_of = {k: unit for k, (unit, _) in spans.per_layer_names().items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        recorder.dump(path, t0)
        detail["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = {
            "setup_s": statistics.median(setup_seconds(args)),
            "items_per_s": sum(solved) / sum(best[i] for i in timed_inputs),
            "call_p50_ms": 1e3 * statistics.median(best[i] for i in timed_inputs),
            "peak_rss_mb": peak_rss_mb,
        }
        units_of = END_TO_END_UNITS
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": units,
                "failed": failed_units,
                "metrics": {
                    name: {"value": metrics[name], "unit": units_of[name]}
                    for name in units_of
                },
            }
        )
    )
    return 1 if failures else 0


END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


if __name__ == "__main__":
    sys.exit(main())
