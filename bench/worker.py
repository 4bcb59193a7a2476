"""One pass of a workload, run closed-loop in a fresh interpreter.

Reads a request on stdin:
    {"ops": [...], "trace": bool, "workdir": "...", "spans_path": "..." | null}
and prints one JSON line with a record per op, the peak RSS of this process
and, when traced, the per-layer aggregates.  Each op is timed from the call
to its return; its output check runs afterwards, untimed and untraced.  A
reference slice (pace.py) runs before each op and after the last, untimed
as far as the ops go; each op's latency and span times are divided by the
host speed factor those slices give around it, and the raw latency is kept
beside it.
`run.py` starts this file with PYTHONPATH pointing at the checkout's `src`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns, process_time_ns

import numpy as np

import sostree
from sostree import boundary, cli, measure, nonti, periodic, ti
from sostree.model import ModelParams
from sostree.tree import SubgroupSpec

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import pace  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = {"measure": measure, "nonti": nonti, "periodic": periodic, "ti": ti}


def _params(inp: dict) -> ModelParams:
    if "theta" in inp:
        return ModelParams.from_theta(k=inp["k"], m=2, theta=inp["theta"])
    return ModelParams(k=inp["k"], m=2, J=inp["J"], beta=inp["beta"])


def _field(spec: dict, memo: dict):
    """Input field of a library op; built once per pass, outside the timer."""
    key = json.dumps(spec, sort_keys=True)
    if key not in memo:
        params = _params(spec)
        if spec["type"] == "constant":
            z = ti.solve_symmetric_roots(params)[spec["branch"]]
            fld = boundary.constant_field(np.array([0.0, np.log(z)]), params, spec["depth"])
        elif spec["type"] == "two_cycle":
            sol = periodic.solve_two_cycle_symmetric(params)[0]
            fld = periodic.expand_two_cycle_field(sol.z, sol.t, params, spec["depth"])
        else:
            fld = nonti.build_field(spec["t"], spec["s"], params, spec["depth"]).field
        memo[key] = (fld, params)
    return memo[key]


def lib_call(op: dict, memo: dict) -> tuple[tuple, dict]:
    """Positional and keyword arguments of a library op."""
    inp = op["inputs"]
    fn = op["fn"]
    if "field" in inp:
        fld, params = _field(inp["field"], memo)
        kwargs = {"method": "transfer"} if fn == "measure.log_partition" else {}
        return (fld, params, inp["n"]), kwargs
    if fn == "nonti.root_convergence":
        return (inp["t"], inp["s"], _params(inp), inp["depths"]), {}
    if fn == "ti.locate_symmetric_threshold":
        return (inp["J"], inp["k"], inp["lo"], inp["hi"]), {}
    runs = {"n_starts": inp["n_starts"], "seed": inp["seed"]}
    if fn == "periodic.iterate_parity_system":
        spec = SubgroupSpec(k=inp["k"], parity_set=frozenset(inp["parity_set"]))
        return (spec, _params(inp)), runs
    return (_params(inp),), runs


def _exception_name(stderr_text: str) -> str | None:
    lines = [ln for ln in stderr_text.splitlines() if ln.strip()]
    if not lines or ":" not in lines[-1]:
        return None
    return lines[-1].split(":", 1)[0].rsplit(".", 1)[-1]


def run_op(i: int, op: dict, workdir: Path, memo: dict, tracer: Tracer | None) -> dict:
    rec = {"id": i, "label": op["label"], "expect": op["expect"], "exit": None,
           "exception": None, "out_bytes": 0}
    if op["kind"] == "lib":
        module, name = op["fn"].split(".")
        args, kwargs = lib_call(op, memo)
    else:
        out = workdir / f"op{i}.out"
        argv = op["argv"] + ["--out", str(out)]
        err = io.StringIO()

    value = None
    if tracer is not None:
        tracer.active = True
        root = tracer.begin_op(i)
    c0 = process_time_ns()
    t0 = perf_counter_ns()
    try:
        if op["kind"] == "lib":
            # looked up at call time, so a traced wrapper is the one called
            value = getattr(MODULES[module], name)(*args, **kwargs)
        else:
            with contextlib.redirect_stderr(err):
                rec["exit"] = cli.main(argv)
    except Exception as exc:  # an op that raises is recorded, not fatal
        rec["exception"] = type(exc).__name__
    t1 = perf_counter_ns()
    rec["cpu_ms"] = (process_time_ns() - c0) / 1e6
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
        t0, t1 = tracer.starts[root], tracer.ends[root]
    rec["latency_ms"] = (t1 - t0) / 1e6

    if op["kind"] == "cli":
        if rec["exit"] not in (0, None):
            rec["exception"] = _exception_name(err.getvalue())
        if out.exists():
            rec["out_bytes"] = out.stat().st_size
    failed_call = rec["exception"] is not None or rec["exit"] not in (0, None)
    if op["expect"] == "exit3":
        ok, detail = rec["exit"] == 3, f"exit {rec['exit']}"
    elif failed_call:
        ok, detail = False, f"exit {rec['exit']}, {rec['exception']}"
    else:
        try:
            ok, detail = _check(op, value, args if op["kind"] == "lib" else None,
                                out if op["kind"] == "cli" else None, workdir, i)
        except Exception as exc:  # a check that crashes is a failed check
            ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
    if ok:
        rec["outcome"] = "ok"
    elif op["expect"] == "cap" and rec["exception"] == "ScaleError":
        rec["outcome"] = "capped"
    else:
        rec["outcome"] = "failed"
    rec["detail"] = detail
    for path in workdir.glob(f"op{i}.*"):
        path.unlink()
    return rec


def _check(op, value, args, out, workdir, i):
    if op["kind"] == "lib":
        return checks.LIB_CHECKS[op["check"]](value, *args)
    if op["check"] == "sample":
        again = workdir / f"op{i}.again"
        if cli.main(op["argv"] + ["--out", str(again)]) != 0:
            return False, "second draw failed"
        return checks.check_sample(out, again, op.get("sha256"))
    return checks.CLI_CHECKS[op["check"]](out.read_text(), op["argv"])


def main() -> int:
    req = json.load(sys.stdin)
    workdir = Path(req["workdir"])
    tracer = Tracer() if req["trace"] else None
    if tracer is not None:
        tracer.install()
    memo: dict = {}
    records, refs = [], []
    for i, op in enumerate(req["ops"]):
        refs.append(pace.ref_slice())
        records.append(run_op(i, op, workdir, memo, tracer))
    refs.append(pace.ref_slice())
    factors = pace.op_factors(refs)
    for rec, factor in zip(records, factors):
        rec["raw_latency_ms"] = rec["latency_ms"]
        rec["latency_ms"] /= factor
        rec["speed_factor"] = factor
    result = {"records": records, "ref_ms": refs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "numpy": np.__version__, "sostree": sostree.__version__}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate(factors)
        if req.get("spans_path"):
            Path(req["spans_path"]).write_text(json.dumps(tracer.dump()))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
