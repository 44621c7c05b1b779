"""leakscan benchmark: three seeded workloads, run in-process.

    python3 benchmarks/bench.py --workload screen --seed 1 --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each was chosen):

- ``screen``: ``leakscan infer`` over scene files, paper-size relation net;
- ``train-round``: ``train-rel`` -> ``train-rules`` -> ``eval`` on the
  compact net;
- ``enhance``: ``leakscan enhance`` over gray PGM and colour PPM images.

A run generates its inputs from ``--seed`` in a child process, times the
set-up step several times, runs one untimed warm-up operation, then runs
whole blocks of operations until ``--seconds`` of operation time have
passed.  Every output is checked outside the timed region; a failed check
counts as a failed operation.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced runs of the same
blocks until the untraced ones reach ``--seconds / 2``, and the last line
holds the per-layer metrics.  The line before the last carries the
workload's own metrics, the environment and a digest of the first block's
outputs.  ``--self-test`` runs every workload at smoke sizes and checks the
printed names, units and failure accounting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics printed for every workload, with their units.
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms", "ops_per_s": "1/s"}

#: One BLAS thread: a multi-threaded first repetition runs as an outlier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_leakscan():
    """Import the benchmark modules against this checkout's src/ only."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import leakscan

    if not Path(leakscan.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"leakscan imported from {leakscan.__file__}, not {SRC}")
    import tracing
    import workloads

    return tracing, workloads


class _Loop:
    """Closed loop with one client: operations in blocks, each output
    checked outside the timed region.  Keeps the per-op times, the failure
    count and a digest of the first block's outputs."""

    def __init__(self, wl):
        self.wl = wl
        self.op_s: list[float] = []
        self.failed = 0
        self._digest = hashlib.sha256()

    def run_block(self, b: int, tracer=None, fault: bool = False) -> None:
        wl = self.wl
        for item in wl.block(b):
            if tracer is not None:
                tracer.op = len(self.op_s)
                tracer.recording = True
            start = time.perf_counter()
            try:
                out, err = wl.run_op(item), None
            except Exception as e:  # an operation that raises counts as failed
                out, err = None, e
            self.op_s.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.recording = False
            try:
                if err is not None:
                    raise err
                if fault and len(self.op_s) == 1:
                    out = wl.corrupt(out)
                part = wl.check(item, out)
            except Exception as e:
                self.failed += 1
                print(f"{wl.name}: operation {len(self.op_s) - 1} failed: {e!r}", file=sys.stderr)
            else:
                if b == 0:
                    self._digest.update(part)

    def digest(self) -> str:
        return self._digest.hexdigest()


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((SRC / "leakscan").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": min(BLAS_THREADS, nproc),
        "seed": seed,
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def _metric_dict(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run(args) -> int:
    tracing, workloads = _import_leakscan()
    cls = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".benchwork"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Inputs are written by a child process, so generation stays out of
        # this process's time and peak memory.
        cmd = [sys.executable, str(Path(__file__).resolve()), "--generate",
               "--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
        subprocess.run(cmd + (["--smoke"] if args.smoke else []), check=True,
                       stdout=subprocess.DEVNULL)
        wl = cls(work, args.seed, args.smoke)
        if args.trace:
            detail, final = _traced_run(wl, args, tracing, workloads, work_root)
        else:
            detail, final = _plain_run(wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              **detail, "env": _environment(args.seed)}
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


def _plain_run(wl, args):
    setup = [_timed(wl.setup) for _ in range(wl.setup_repeats)]
    wl.warmup()
    loop = _Loop(wl)
    b = 0
    while b == 0 or sum(loop.op_s) < args.seconds:
        loop.run_block(b, fault=args.inject_fault)
        b += 1
    op_s = loop.op_s
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "ops_per_s": len(op_s) / sum(op_s),
    }
    own = {k: {"value": v, "unit": u} for k, (v, u) in wl.summary(op_s).items()}
    for k in ("setup_s", "peak_rss_mb"):
        own[k] = {"value": values[k], "unit": E2E_UNITS[k]}
    detail = {"ops": len(op_s), "blocks": b, "setup_runs": len(setup),
              "metrics": own, "digest": loop.digest()}
    final = {"correct": loop.failed == 0, "attempted": len(op_s), "failed": loop.failed,
             "metrics": _metric_dict(values, E2E_UNITS)}
    return detail, final


def _traced_run(wl, args, tracing, workloads, work_root):
    """Alternate untraced and traced runs of the same blocks, so that drift
    in machine speed falls on both sides of the overhead ratio."""
    tracer = tracing.Tracer({r: i for i, r in enumerate(workloads.default_rules())})
    plain, traced = _Loop(wl), _Loop(wl)
    untraced_setup = _timed(wl.setup)
    with tracer.installed():
        tracer.recording = True
        traced_setup = _timed(wl.setup)
        tracer.recording = False
    wl.warmup()
    b = 0
    while b == 0 or sum(plain.op_s) < args.seconds / 2:
        plain.run_block(b, fault=args.inject_fault)
        with tracer.installed():
            traced.run_block(b, tracer=tracer)
        b += 1
    traced_s = traced_setup + sum(traced.op_s)
    untraced_s = untraced_setup + sum(plain.op_s)
    values = tracer.per_layer(sum(traced.op_s), traced_s, untraced_s)
    spans_file = work_root / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(str(spans_file))
    attempted = len(plain.op_s) + len(traced.op_s)
    # Tracing must not change a single output bit.
    failed = plain.failed + traced.failed + (plain.digest() != traced.digest())
    detail = {"ops": attempted, "blocks": 2 * b, "digest": traced.digest(),
              "traced_s": traced_s, "untraced_s": untraced_s, "spans": len(tracer.spans),
              "spans_file": str(spans_file.relative_to(ROOT))}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": _metric_dict(values, tracing.PER_LAYER_UNITS)}
    return detail, final


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def self_test() -> int:
    """Run every workload at smoke sizes and check what it prints."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {t: {m["name"]: m["unit"] for m in bench[k]}
            for t, k in ((0, "end_to_end"), (1, "per_layer"))}
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        for trace, fault in ((0, False), (1, False), (0, True)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
            res = subprocess.run(cmd + (["--inject-fault"] if fault else []),
                                 capture_output=True, text=True, timeout=600)
            _require(res.returncode == 0, f"{cmd} exited {res.returncode}:\n{res.stderr}")
            result = json.loads(res.stdout.strip().splitlines()[-1])
            _require(set(result) == {"correct", "attempted", "failed", "metrics"}, str(result))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(got == want[trace], f"{workload} trace {trace}: {got} != {want[trace]}")
            _require(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                     "non-numeric metric value")
            _require(result["attempted"] >= 1, "no operation attempted")
            if fault:
                _require(result["failed"] >= 1 and not result["correct"],
                         f"corrupted output not counted as failed: {result}")
            else:
                _require(result["failed"] == 0 and result["correct"], res.stderr)
            print(f"ok  {workload} trace={trace} fault={fault} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("screen", "train-round", "enhance"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first output before it is checked (self-test)")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if args.generate:
        _, workloads = _import_leakscan()
        workloads.WORKLOADS[args.workload].generate(Path(args.work), args.seed, args.smoke)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
