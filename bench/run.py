"""sostree benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload solver_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The op list comes from `workloads.py` and
the seed.  Each pass runs the whole list once, closed loop, in a fresh child
interpreter (`worker.py`) with BLAS pools capped at one thread; passes repeat
while another fits within `--seconds`.  Each op's latency is its median over
the passes: `wall_s` sums them, and `op_p50_ms` / `op_p90_ms` are taken over
them.
`setup_s` is timed separately, on fresh interpreters that only import
`sostree.cli`.  Every timing is divided by the host speed factor measured
next to it with a fixed reference slice of work (`pace.py`), because the
shared machines this runs on drift in speed by tens of percent; the raw
figures and the factors go to the result file.

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json; with
`--trace 1` passes alternate untraced and traced, and the metrics are the
per-layer ones, taken from the traced passes.  Every metric is printed as
`name value unit`; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with per-op
outcomes and run metadata, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pace  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_REPEATS = 11
SETUP_REF_SLICES = 9
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(root: Path, env: dict) -> tuple[float, float]:
    """Seconds from launching an interpreter until `sostree.cli` is imported.

    Returns the raw time and the host speed factor from reference slices run
    just before and after it.
    """
    refs = [pace.ref_slice() for _ in range(SETUP_REF_SLICES)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sostree.cli; print('ready', flush=True)"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"importing sostree.cli failed:\n{err}")
    refs += [pace.ref_slice() for _ in range(SETUP_REF_SLICES)]
    return elapsed, statistics.median(refs) / pace.REF_NOMINAL_MS


def run_pass(root: Path, env: dict, ops: list[dict], traced: bool, work: Path,
             spans_path: Path | None) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    request = {"ops": ops, "trace": traced, "workdir": str(workdir),
               "spans_path": str(spans_path) if spans_path else None}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
                              input=json.dumps(request), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    result["wall_s"] = sum(r["latency_ms"] for r in result["records"]) / 1e3
    result["raw_wall_s"] = sum(r["raw_latency_ms"] for r in result["records"]) / 1e3
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the value with a share q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's latency (ms), as its median over the passes."""
    return [statistics.median(p["records"][i]["latency_ms"] for p in passes)
            for i in range(len(passes[0]["records"]))]


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> dict[str, float]:
    latencies = op_latencies(passes)
    records = [r for p in passes for r in p["records"]]
    return {
        "wall_s": sum(latencies) / 1e3,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 0.9),
        "setup_s": statistics.median(raw / factor for raw, factor in setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": sum(r["outcome"] == "ok" for r in records) / len(records),
    }


def per_layer(traced: list[dict], wanted: list[str]) -> dict[str, float]:
    """Per-layer metrics from the traced passes (median over passes)."""
    values: dict[str, list[float]] = {name: [] for name in wanted}
    for p in traced:
        spans, counts = p["layers"]["spans"], p["layers"]["counts"]
        out_bytes = sum(r["out_bytes"] for r in p["records"])
        for name in wanted:
            span, _, stat = name.rpartition(".")
            if stat == "self_ms":
                v = spans.get(span, {}).get("self_ns", 0) / 1e6
            elif stat == "calls" and span in spans:
                v = spans[span]["calls"]
            elif name == "cli.out_bytes":
                v = out_bytes
            else:
                v = counts.get(name, 0)
            values[name].append(v)
    return {name: statistics.median(v) for name, v in values.items()}


def trace_accounting(traced: list[dict]) -> dict:
    """Summed self time against traced wall time, per traced pass."""
    rows = []
    for p in traced:
        spans = p["layers"]["spans"]
        self_s = sum(s["self_ns"] for s in spans.values()) / 1e9
        rows.append({"wall_s": p["wall_s"], "summed_self_s": self_s,
                     "harness_self_s": spans.get("bench.op", {}).get("self_ns", 0) / 1e9})
    return {"passes": rows}


def metadata(root: Path, passes: list[dict]) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "sostree").glob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy"),
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "src_sostree_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sostree" / "cli.py").is_file():
        print(f"error: no sostree sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    results = HERE / "results"
    work = HERE / ".work"
    results.mkdir(exist_ok=True)
    work.mkdir(exist_ok=True)
    env = child_env(root)
    ops = make_ops(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = [time_setup(root, env) for _ in range(SETUP_REPEATS)]
    passes: list[dict] = []
    start = time.perf_counter()
    durations: list[float] = []
    # a pass starts only if one as long as the last two would end in time
    while (len(passes) < 1 + args.trace
           or time.perf_counter() - start + max(durations[-2:]) <= args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(root, env, ops, traced, work,
                               results / f"{stem}.spans.json" if traced else None))
        durations.append(time.perf_counter() - t0)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    records = [r for p in passes for r in p["records"]]
    failed = sum(r["outcome"] == "failed" for r in records)
    meta = metadata(root, passes)
    meta["tracing_overhead"] = None
    if args.trace:
        metrics_spec = spec["per_layer"]
        values = per_layer(traced, [m["name"] for m in metrics_spec])
        wall_traced = statistics.median(p["wall_s"] for p in traced)
        wall_plain = statistics.median(p["wall_s"] for p in untraced)
        meta["tracing_overhead"] = wall_traced / wall_plain - 1.0
        meta["trace_accounting"] = trace_accounting(traced)
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end(passes, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    summary = {"correct": failed == 0, "attempted": len(records), "failed": failed,
               "metrics": metrics}

    meta.update({"passes": len(passes), "latency_samples": len(ops),
                 "setup_samples_raw_s": [raw for raw, _ in setup],
                 "setup_speed_factors": [factor for _, factor in setup],
                 "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
                 "pass_speed_factor": [statistics.median(r["speed_factor"] for r in p["records"])
                                       for p in passes],
                 "ref_nominal_ms": pace.REF_NOMINAL_MS,
                 "capped": sum(r["outcome"] == "capped" for r in records)})
    meta["speed_factor"] = statistics.median(meta["pass_speed_factor"])
    meta["fail_frac"] = (failed + meta["capped"]) / len(records)
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, **summary, "meta": meta, "passes": passes}, indent=1))

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    info = ["passes", "latency_samples", "capped", "fail_frac", "speed_factor",
            "tracing_overhead"]
    print("# " + ", ".join(f"{key} {meta[key]!r}" for key in info if meta[key] is not None))
    for r in records:
        if r["outcome"] == "failed":
            print(f"FAILED op {r['id']} {r['label']}: {r['detail']}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
