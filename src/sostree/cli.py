"""Command-line front end: solvers, sweeps, sampling and verification.

Commands emit JSON or CSV; CSV uses '.' decimals, ',' separators, LF line
endings and 17 significant digits so numbers round-trip at 64-bit precision.
Every file-producing run writes a manifest alongside the output (the resolved
parameters, every flag of the command, `sample`'s chosen root z and the
package version), and is deterministic given it.  `COMMANDS` declares each
command once, and `main` writes every output and manifest.  A call builds
the argument parser of its own command only, with one terminal query.

Exit codes: 0 ok, 1 internal error, 2 usage error (any model.UsageError, argparse's
refusals and an unwritable --out too, as one `error:` line), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, boundary, measure, nonti, periodic, ti
from .model import ModelParams, UsageError, parse_params_text
from .tree import SubgroupSpec, ball_size


def _fmt(x: float) -> str:
    return f"{x:.17g}"


PARAM_FLAGS = (
    ("--k", {"type": int, "help": "tree order"}),
    ("--m", {"type": int, "help": "max spin (default 2, the only value supported)"}),
    ("--J", {"type": float, "help": "coupling"}),
    ("--beta", {"type": float, "help": "inverse temperature"}),
    ("--theta", {"type": float, "help": "activation, replaces (J, beta)"}),
    ("--config", {"type": str, "help": "key=value parameter file"}),
)


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
        return ModelParams.from_theta(k=k, m=m, theta=args.theta)
    J = args.J if args.J is not None else (base.J if base else None)
    beta = args.beta if args.beta is not None else (base.beta if base else None)
    if J is None or beta is None:
        raise UsageError("give --J and --beta (or --theta, or --config)")
    return ModelParams(k=k, m=m, J=J, beta=beta)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


class Output(NamedTuple):
    text: str
    derived: dict = {}      # values the run chose that its manifest records
    ok: bool = True         # False when a `verify` check fails


def cmd_solve_ti(args, params: ModelParams) -> Output:
    return Output(_json(ti.solve(params)))


def cmd_critical_beta(args, params: None) -> Output:
    return Output(_json({"J": args.J, "k": args.k, "beta_cr": ti.critical_beta(args.J, args.k)}))


def cmd_phase_diagram(args, params: None) -> Output:
    if not (0 <= args.beta_min < args.beta_max < math.inf and 0 < args.beta_step < math.inf):
        raise UsageError("invalid beta range")
    # each row prints its beta rounded to 12 decimals, so a finer step repeats betas
    if args.beta_step < 1e-12:
        raise UsageError("--beta-step must be at least 1e-12, the precision of the printed beta")
    # b grows by the step until it passes top: refuse 10^5 steps or more, and
    # a step at or below the float spacing at top, which some b would absorb
    top = args.beta_max + 1e-15
    if (top - args.beta_min) / args.beta_step >= 10 ** 5 or args.beta_step <= math.ulp(top):
        raise UsageError("--beta-step must split the beta range into fewer than 100000 "
                         "steps, each above the float spacing of beta")
    sweep = []
    b = args.beta_min
    while b <= top:
        sweep.append(ModelParams(k=args.k, m=2, J=args.J, beta=round(b, 12)))
        b += args.beta_step
    rows = ["beta,root_count,z_minus,z_mid,z_plus,beta_cr_flag"]
    flagged = False
    for params, roots in zip(sweep, ti.symmetric_root_lanes(sweep)):
        count = len(roots)
        z_minus = z_mid = z_plus = ""
        if count == 1:
            z_mid = _fmt(roots[0])
        elif count == 2:
            z_minus, z_plus = _fmt(roots[0]), _fmt(roots[1])
        else:
            z_minus, z_mid, z_plus = (_fmt(z) for z in roots)
        flag = int(count > 1 and not flagged)
        flagged = flagged or count > 1
        rows.append(f"{_fmt(params.beta)},{count},{z_minus},{z_mid},{z_plus},{flag}")
    return Output("\n".join(rows) + "\n")


def _parse_subgroup(text: str, k: int) -> SubgroupSpec:
    if text == "full":
        return SubgroupSpec(k=k, parity_set=frozenset(range(1, k + 2)))
    try:
        letters = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad subgroup spec {text!r}: use 'full' or e.g. '1,3'") from None
    return SubgroupSpec(k=k, parity_set=letters)


def cmd_solve_periodic(args, params: ModelParams) -> Output:
    spec = _parse_subgroup(args.subgroup, params.k)
    return Output(_json(periodic.classify_by_subgroup(spec, params)))


def _check_size(k: int, depth: int, count: int = 1) -> None:
    """Refuse a ball, times `count` samples, of more than measure.SIZE_CAP
    vertices before anything is built (a zero count still builds the ball)."""
    # at k >= 2 a ball deeper than 64 levels has more than 2^64 vertices
    size = 1 + 2 * depth if k == 1 else ball_size(k, min(depth, 64))
    if size * max(count, 1) > measure.SIZE_CAP:
        times = f" times --count {count}" if count > 1 else ""
        raise UsageError(f"the depth-{depth} ball of order {k}{times} exceeds "
                         f"{measure.SIZE_CAP} vertices")


def cmd_build_nonti(args, params: ModelParams) -> Output:
    _check_size(params.k, args.depth)
    return Output(nonti.build_field(args.t, args.s, params, args.depth).to_json_text())


def _branch_field(params: ModelParams, branch: str, depth: int):
    """The chosen symmetric root z and its constant field on the depth-`depth` ball."""
    roots = ti.solve_symmetric_roots(params)
    if branch != "auto" and len(roots) != 3:
        raise UsageError(f"branch {branch!r} needs three symmetric solutions, found {len(roots)}")
    z = roots[{"auto": -1, "low": 0, "mid": 1, "high": 2}[branch]]
    return z, boundary.constant_field(np.array([0.0, math.log(z)]), params, depth)


def cmd_sample(args, params: ModelParams) -> Output:
    for name in ("depth", "seed", "count"):
        if getattr(args, name) < 0:
            raise UsageError(f"--{name} must be >= 0")
    _check_size(params.k, args.depth, args.count)
    z, fld = _branch_field(params, args.branch, args.depth)
    samples, labels = measure.sample(fld, params, args.depth, args.seed, args.count)
    return Output(measure.samples_to_csv(samples, labels), {"z": z})


def _oracle_rows(fld: boundary.BoundaryLawField, params: ModelParams, n: int,
                 flip: bool = False) -> list[tuple]:
    """Compatibility at depth n, DLR at depth 0 and, with `flip`, the spin-flip
    symmetry at depth n; each depth's table or sweep is built once and shared."""
    table = measure.Tables(fld, params)
    v = measure.compatibility_oracle(fld, params, n, table)
    d = measure.dlr_breakdown(fld, params, 0, table).max_violation
    rows = [(f"compatibility_oracle(n={n})<=1e-10", v <= 1e-10, v),
            ("dlr_oracle(n=0)<=1e-10", d <= 1e-10, d)]
    if flip:
        sym = measure.symmetry_check(fld, params, n, table)
        rows.append(("spin_flip_symmetry", sym, sym))
    return rows


def cmd_verify(args, params: ModelParams) -> Output:
    if args.depth < 1:
        raise UsageError("--depth must be >= 1")
    _check_size(params.k, args.depth)

    if args.source == "ti":
        _, fld = _branch_field(params, args.branch, args.depth)
        if args.perturb:
            fld = boundary.perturb_field(fld, args.perturb)
        r = boundary.compatibility_residual(fld, params)
        rows = [("compatibility_residual<=1e-10", r <= 1e-10, r),
                *_oracle_rows(fld, params, args.depth, flip=True)]
    elif args.source == "period2":
        value, holds = periodic.cycle_instability(params)
        cycles = [s for s in periodic.solve_two_cycle_symmetric(params)
                  if s.type == periodic.CYCLE]
        rows = [("instability>1", holds, value),
                ("cycle_found", bool(cycles), len(cycles))]
        if cycles:
            psi = ti.SliceMap(params.theta, params.k)
            s = cycles[0]
            res = max(abs(s.z - float(psi(s.t))), abs(s.t - float(psi(s.z))))
            fld = periodic.expand_two_cycle_field(s.z, s.t, params, args.depth)
            if args.perturb:
                fld = boundary.perturb_field(fld, args.perturb)
            r = boundary.compatibility_residual(fld, params)
            rows += [("alternating_residual<=1e-12", res <= 1e-12, res),
                     ("expanded_field_residual<=1e-10", r <= 1e-10, r)]
    else:
        roots = ti.solve_symmetric_roots(params)
        fld = nonti.build_field(args.t, args.s, params, args.depth, roots).field
        if args.perturb:
            fld = boundary.perturb_field(fld, args.perturb)
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
    return Output(report, ok=all(ok for _, ok, _ in rows))


class Command(NamedTuple):
    help: str
    run: Callable[..., Output]
    flags: tuple = ()       # the command's own (flag, add_argument keywords)
    model_params: bool = True


BRANCH = {"choices": ["auto", "low", "mid", "high"], "default": "auto"}
FLOAT = {"type": float, "required": True}
K_AND_J = (("--k", {"type": int, "required": True}), ("--J", FLOAT))

COMMANDS = {
    "solve-ti": Command("translation-invariant solutions", cmd_solve_ti),
    "critical-beta": Command("closed-form symmetric threshold", cmd_critical_beta,
                             K_AND_J, model_params=False),
    "phase-diagram": Command("symmetric root count over a beta range", cmd_phase_diagram,
                             K_AND_J + (("--beta-min", FLOAT), ("--beta-max", FLOAT),
                                        ("--beta-step", FLOAT)),
                             model_params=False),
    "solve-periodic": Command("periodic solutions by parity subgroup", cmd_solve_periodic, (
        ("--subgroup", {"default": "full", "help": "'full' or generator list '1,3'"}),)),
    "build-nonti": Command("path-pair field on a finite ball", cmd_build_nonti, (
        ("--t", FLOAT),
        ("--s", FLOAT),
        ("--depth", {"type": int, "default": 6}))),
    "sample": Command("forward samples from a constant-law measure", cmd_sample, (
        ("--depth", {"type": int, "default": 3}),
        ("--seed", {"type": int, "default": 0}),
        ("--count", {"type": int, "default": 1000}),
        ("--branch", BRANCH))),
    "verify": Command("run the oracle suite on a named solution", cmd_verify, (
        ("--source", {"choices": ["ti", "period2", "nonti"], "required": True}),
        ("--branch", BRANCH),
        ("--t", {"type": float, "default": 0.0}),
        ("--s", {"type": float, "default": 0.0}),
        ("--depth", {"type": int, "default": 2}),
        ("--perturb", {"type": float, "default": 0.0}))),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, raising UsageError where it would print its usage and exit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-1e-3" and "-inf", like "-1", as values, not as unknown flags
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-inf$", re.I)

    @staticmethod
    def error(message):
        raise UsageError(message)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`.  When argv[0] names a command it is that
    command's parser alone (prog "sostree <name>"), which parses argv[1:];
    otherwise it is the parser of every command, which parses argv whole.
    That fallback serves the input that ends in help or a refusal: `--help`,
    an empty argv, an unknown command or a leading `--`, whose messages list
    every command.  The terminal width is queried once here: argparse would
    query it again in every add_argument."""
    import shutil   # at first use, as argparse imports it

    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    if argv and argv[0] in COMMANDS:
        return _add_command(_Parser(prog=f"sostree {argv[0]}", formatter_class=formatter),
                            argv[0])
    parser = _Parser(
        prog="sostree", formatter_class=formatter,
        description="Boundary-law solvers and finite-volume verifiers on Cayley trees")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        _add_command(sub.add_parser(name, help=cmd.help, formatter_class=formatter), name)
    return parser


def _add_command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """p with the flags, `--out` and the defaults of command `name`."""
    cmd = COMMANDS[name]
    for flag, options in PARAM_FLAGS if cmd.model_params else ():
        p.add_argument(flag, **options)
    recorded = [p.add_argument(flag, **options).dest for flag, options in cmd.flags]
    p.add_argument("--out")
    p.set_defaults(command=name, cmd=cmd, recorded=recorded)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        named = bool(argv) and argv[0] in COMMANDS    # whose parser takes argv[1:]
        args = build_parser(argv).parse_args(argv[1:] if named else argv)
        # far from the solutions, exp(h) and the root-scan products overflow
        # to inf by design (such Newton starts are dropped), so stay quiet
        with np.errstate(over="ignore", invalid="ignore"):
            params = _resolve_params(args) if args.cmd.model_params else None
            output = args.cmd.run(args, params)
        if not args.out:
            sys.stdout.write(output.text)
        else:
            config = {dest: getattr(args, dest) for dest in args.recorded} | output.derived
            if params is not None:
                config["params"] = params.to_dict()
            manifest = {"command": args.command, "config": config, "version": __version__}
            try:
                Path(args.out).write_text(output.text)
                Path(args.out + ".manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
            except OSError as bad:
                raise UsageError(f"cannot write --out {args.out}: {bad.strerror}") from None
    except SystemExit:      # the parser exits only after printing --help
        return 0
    except UsageError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0 if output.ok else 3


if __name__ == "__main__":
    sys.exit(main())
