"""Command-line front end: solvers, sweeps, sampling and verification.

Commands emit JSON or CSV; CSV uses '.' decimals, ',' separators, LF line
endings and 17 significant digits so numbers round-trip at 64-bit precision.
Every file-producing run writes a manifest (resolved configuration, seed,
package version) alongside the output, and is deterministic given it.

Exit codes: 0 ok, 1 internal error, 2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, boundary, measure, nonti, periodic, ti
from .model import ModelParams, parse_params_text
from .tree import SubgroupSpec


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="tree order")
    p.add_argument("--m", type=int, help="max spin (default 2, the only value supported)")
    p.add_argument("--J", type=float, help="coupling")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--theta", type=float, help="activation, replaces (J, beta)")
    p.add_argument("--config", type=str, help="key=value parameter file")


def _resolve_params(args) -> ModelParams:
    base = None
    if args.config:
        try:
            base = parse_params_text(Path(args.config).read_text())
        except (OSError, ValueError) as bad:
            raise UsageError(f"--config {args.config}: {bad}") from None
    k = args.k if args.k is not None else (base.k if base else None)
    m = args.m if args.m is not None else (base.m if base else 2)
    if k is None:
        raise UsageError("tree order --k is required")
    if m != 2:
        raise UsageError(f"every command requires m = 2, got m = {m}")
    if args.theta is not None:
        if args.J is not None or args.beta is not None:
            raise UsageError("--theta replaces (J, beta); do not give both")
        try:
            return ModelParams.from_theta(k=k, m=m, theta=args.theta)
        except ValueError as bad:
            raise UsageError(str(bad)) from None
    J = args.J if args.J is not None else (base.J if base else None)
    beta = args.beta if args.beta is not None else (base.beta if base else None)
    if J is None or beta is None:
        raise UsageError("give --J and --beta (or --theta, or --config)")
    try:
        return ModelParams(k=k, m=m, J=J, beta=beta)
    except ValueError as bad:
        raise UsageError(str(bad)) from None


def _emit(args, text: str, manifest: dict) -> None:
    if getattr(args, "out", None):
        out = Path(args.out)
        out.write_text(text)
        manifest = dict(manifest)
        manifest["version"] = __version__
        Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        sys.stdout.write(text)


def _manifest(command: str, args, params: ModelParams | None = None, **extra) -> dict:
    cfg = dict(extra)
    if params is not None:
        cfg["params"] = params.to_dict()
    return {"command": command, "config": cfg}


def cmd_solve_ti(args) -> int:
    params = _resolve_params(args)
    result = ti.solve(params)
    _emit(args, json.dumps(result.to_json_dict(), indent=2) + "\n",
          _manifest("solve-ti", args, params))
    return 0


def cmd_critical_beta(args) -> int:
    if args.k is None or args.J is None:
        raise UsageError("give --k and --J")
    try:
        value = ti.critical_beta(args.J, args.k)
    except ValueError as bad:
        raise UsageError(str(bad)) from None
    payload = {"J": args.J, "k": args.k, "beta_cr": value}
    _emit(args, json.dumps(payload, indent=2) + "\n",
          _manifest("critical-beta", args, J=args.J, k=args.k))
    return 0


def cmd_phase_diagram(args) -> int:
    if args.k is None or args.J is None:
        raise UsageError("give --k and --J")
    if args.beta_min is None or args.beta_max is None or args.beta_step is None:
        raise UsageError("give --beta-min, --beta-max and --beta-step")
    if not (0 <= args.beta_min < args.beta_max) or args.beta_step <= 0:
        raise UsageError("invalid beta range")
    sweep = []
    b = args.beta_min
    while b <= args.beta_max + 1e-15:
        try:
            sweep.append(ModelParams(k=args.k, m=2, J=args.J, beta=round(b, 12)))
        except ValueError as bad:
            raise UsageError(str(bad)) from None
        b += args.beta_step
    rows = ["beta,root_count,z_minus,z_mid,z_plus,beta_cr_flag"]
    flagged = False
    for params in sweep:
        roots = ti.solve_symmetric_roots(params)
        count = len(roots)
        z_minus = z_mid = z_plus = ""
        if count == 1:
            z_mid = _fmt(roots[0])
        elif count == 2:
            z_minus, z_plus = _fmt(roots[0]), _fmt(roots[1])
        else:
            z_minus, z_mid, z_plus = (_fmt(z) for z in roots)
        flag = 0
        if count > 1 and not flagged:
            flag = 1
            flagged = True
        rows.append(f"{_fmt(params.beta)},{count},{z_minus},{z_mid},{z_plus},{flag}")
    _emit(args, "\n".join(rows) + "\n",
          _manifest("phase-diagram", args, J=args.J, k=args.k,
                    beta_min=args.beta_min, beta_max=args.beta_max,
                    beta_step=args.beta_step))
    return 0


def _parse_subgroup(text: str, k: int) -> SubgroupSpec:
    if text == "full":
        return SubgroupSpec(k=k, parity_set=frozenset(range(1, k + 2)))
    try:
        letters = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad subgroup spec {text!r}: use 'full' or e.g. '1,3'") from None
    try:
        return SubgroupSpec(k=k, parity_set=letters)
    except ValueError as bad:
        raise UsageError(str(bad)) from None


def cmd_solve_periodic(args) -> int:
    params = _resolve_params(args)
    spec = _parse_subgroup(args.subgroup, params.k)
    report = periodic.classify_by_subgroup(spec, params)
    _emit(args, json.dumps(report, indent=2) + "\n",
          _manifest("solve-periodic", args, params, subgroup=args.subgroup))
    return 0


def cmd_build_nonti(args) -> int:
    params = _resolve_params(args)
    try:
        built = nonti.build_field(args.t, args.s, params, args.depth)
    except ValueError as bad:
        raise UsageError(str(bad)) from None
    _emit(args, json.dumps(built.to_json_dict(), indent=2) + "\n",
          _manifest("build-nonti", args, params, t=args.t, s=args.s, depth=args.depth))
    return 0


def _branch_field(params: ModelParams, branch: str, depth: int):
    """The chosen symmetric root z and its constant field on the depth-`depth` ball."""
    roots = ti.solve_symmetric_roots(params)
    if branch != "auto" and len(roots) != 3:
        raise UsageError(f"branch {branch!r} needs three symmetric solutions, found {len(roots)}")
    z = roots[{"auto": -1, "low": 0, "mid": 1, "high": 2}[branch]]
    return z, boundary.constant_field(np.array([0.0, math.log(z)]), params, depth)


def cmd_sample(args) -> int:
    params = _resolve_params(args)
    for name in ("depth", "seed", "count"):
        if getattr(args, name) < 0:
            raise UsageError(f"--{name} must be >= 0")
    z, fld = _branch_field(params, args.branch, args.depth)
    samples, labels = measure.sample(fld, params, args.depth, args.seed, args.count)
    _emit(args, measure.samples_to_csv(samples, labels),
          _manifest("sample", args, params, depth=args.depth, seed=args.seed,
                    count=args.count, branch=args.branch, z=z))
    return 0


def _oracle_rows(fld: boundary.BoundaryLawField, params: ModelParams, n: int) -> list[tuple]:
    v = measure.compatibility_oracle(fld, params, n)
    d = measure.dlr_oracle(fld, params, 0)
    return [(f"compatibility_oracle(n={n})<=1e-10", v <= 1e-10, v),
            ("dlr_oracle(n=0)<=1e-10", d <= 1e-10, d)]


def cmd_verify(args) -> int:
    params = _resolve_params(args)
    if args.depth < 1:
        raise UsageError("--depth must be >= 1")

    if args.source == "ti":
        _, fld = _branch_field(params, args.branch, args.depth)
        if args.perturb:
            fld = boundary.perturb_field(fld, args.perturb)
        r = boundary.compatibility_residual(fld, params)
        sym = measure.symmetry_check(fld, params, args.depth)
        rows = [("compatibility_residual<=1e-10", r <= 1e-10, r),
                *_oracle_rows(fld, params, args.depth),
                ("spin_flip_symmetry", sym, sym)]
    elif args.source == "period2":
        if params.theta <= 1:
            raise UsageError("period2 verification needs the antiferromagnetic regime")
        value, holds = periodic.cycle_instability(params)
        cycles = [s for s in periodic.solve_two_cycle_symmetric(params)
                  if s.type == periodic.CYCLE]
        rows = [("instability>1", holds, value),
                ("cycle_found", bool(cycles), len(cycles))]
        if cycles:
            psi = ti.SliceMap(params.theta, params.k)
            s = cycles[0]
            res = max(abs(s.z - float(psi(s.t))), abs(s.t - float(psi(s.z))))
            fld = periodic.expand_two_cycle_field(s.z, s.t, params, 2)
            if args.perturb:
                fld = boundary.perturb_field(fld, args.perturb)
            r = boundary.compatibility_residual(fld, params)
            rows += [("alternating_residual<=1e-12", res <= 1e-12, res),
                     ("expanded_field_residual<=1e-10", r <= 1e-10, r)]
    else:
        try:
            fld = nonti.build_field(args.t, args.s, params, args.depth).field
        except ValueError as bad:
            raise UsageError(str(bad)) from None
        if args.perturb:
            fld = boundary.perturb_field(fld, args.perturb)
        roots = ti.solve_symmetric_roots(params)
        # exp is monotone, so the extreme rows bound every non-root law
        h0, h1 = fld.laws[1:, 0], fld.laws[1:, 1]
        z1_lo, z1_hi = math.exp(h1.min()), math.exp(h1.max())
        in_box = (z1_lo >= roots[0] - 1e-9 and z1_hi <= roots[-1] + 1e-9
                  and math.exp(h0.min()) == math.exp(h0.max()) == 1.0)
        r = boundary.compatibility_residual(fld, params)
        rows = [("sandwich_bounds", in_box, f"[{z1_lo},{z1_hi}]"),
                ("compatibility_residual==0", r == 0.0, r),
                *_oracle_rows(fld, params, args.depth)]

    report = "".join(f"{'PASS' if ok else 'FAIL'} {name} = {value}\n" for name, ok, value in rows)
    _emit(args, report, _manifest("verify", args, params, source=args.source,
                                  depth=args.depth, perturb=args.perturb))
    if not all(ok for _, ok, _ in rows):
        raise VerificationFailure(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sostree",
        description="Boundary-law solvers and finite-volume verifiers on Cayley trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-ti", help="translation-invariant solutions")
    _add_param_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_ti)

    p = sub.add_parser("critical-beta", help="closed-form symmetric threshold")
    p.add_argument("--k", type=int)
    p.add_argument("--J", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_critical_beta)

    p = sub.add_parser("phase-diagram", help="symmetric root count over a beta range")
    p.add_argument("--k", type=int)
    p.add_argument("--J", type=float)
    p.add_argument("--beta-min", type=float)
    p.add_argument("--beta-max", type=float)
    p.add_argument("--beta-step", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("solve-periodic", help="periodic solutions by parity subgroup")
    _add_param_flags(p)
    p.add_argument("--subgroup", default="full", help="'full' or generator list '1,3'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_periodic)

    p = sub.add_parser("build-nonti", help="path-pair field on a finite ball")
    _add_param_flags(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_nonti)

    p = sub.add_parser("sample", help="forward samples from a constant-law measure")
    _add_param_flags(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--branch", choices=["auto", "low", "mid", "high"], default="auto")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the oracle suite on a named solution")
    _add_param_flags(p)
    p.add_argument("--source", choices=["ti", "period2", "nonti"], required=True)
    p.add_argument("--branch", choices=["auto", "low", "mid", "high"], default="auto")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 2
    try:
        # far from the solutions, exp(h) and the root-scan products overflow
        # to inf by design (such Newton starts are dropped), so stay quiet
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (UsageError, ti.FloatRangeError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except VerificationFailure:
        return 3
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
