"""Seeded op lists for the three benchmark workloads.

An op is either one CLI command (`{"kind": "cli", "argv": [...]}`, run
in-process through `sostree.cli.main` with `--out` added by the worker) or one
call to a public library function (`{"kind": "lib", "fn": "module.name",
"inputs": {...}}`).  Every op also names the output check the worker runs on
it and what it is expected to do:

- "ok": exit 0 (or return) with output that passes its check;
- "exit3": a `--perturb` negative control, which must exit 3;
- "cap": a probe past the 10^6-configuration enumeration cap.  Today these
  are refused with `ScaleError`; a correct result also counts as ok.

The multiset of op shapes (command, k, depth, grid size) is fixed per
workload, so the amount of work barely depends on the seed; the seed draws
the continuous parameters (beta, theta, path pair, perturbation size, RNG
seeds) and the order of the ops.  Nothing here imports sostree: the program
sees only the argv and arguments generated here.
"""

from __future__ import annotations

import random

WORKLOADS = ("solver_sweep", "deep_fields", "exact_oracles")

# True 1 -> 3 count transitions of the symmetric slice at J = -1.
TRANSITION_BETA = {2: 1.956215431644924, 3: 1.4957444124352473}

# Instability criterion |psi'(z*)| > 1 holds for k = 200 on this theta range.
CYCLE_THETA_200 = (1.06, 1.10)

# Fixed sample case whose CSV bytes are pinned (sha256 of the output file).
PINNED_SAMPLE = {
    "argv": ["sample", "--k", "2", "--J", "-1", "--beta", "2.5", "--depth", "5",
             "--seed", "7", "--count", "300"],
    "sha256": "9d94f6e3783b223a0a9f6d83c7f2ee9a8e7a9c0b103580132bfc876d0dc6da31",
}


def _arg(value: float) -> str:
    """A float CLI argument, to four decimals."""
    return f"{value:.4f}"


def _cli(argv: list[str], check: str, expect: str = "ok", **extra) -> dict:
    return {"kind": "cli", "label": argv[0], "argv": argv, "check": check,
            "expect": expect, **extra}


def _lib(fn: str, inputs: dict, expect: str = "ok") -> dict:
    return {"kind": "lib", "label": fn, "fn": fn, "inputs": inputs,
            "check": fn, "expect": expect}


def _fm(k: int, beta: float) -> list[str]:
    return ["--k", str(k), "--J", "-1", "--beta", _arg(beta)]


def _path_pair(rng: random.Random, k: int) -> tuple[float, float]:
    hi = (k + 1) / k
    t, s = sorted((round(rng.uniform(0.0, hi), 4), round(rng.uniform(0.0, hi), 4)))
    return t, s


def _phase_diagram(rng: random.Random, k: int, n: int) -> dict:
    step = 0.01
    span = (n - 1) * step
    if k in TRANSITION_BETA:
        c = TRANSITION_BETA[k]
        lo = rng.uniform(max(1.4, c - span + 0.005), min(c - 0.005, 2.2 - span))
    else:
        lo = rng.uniform(1.4, 2.2 - span)
    lo = round(lo, 4)
    argv = ["phase-diagram", "--k", str(k), "--J", "-1", "--beta-min", _arg(lo),
            "--beta-max", _arg(lo + span + step / 2), "--beta-step", str(step)]
    return _cli(argv, "phase")


def _solve_ti(rng: random.Random, k: int, J: int) -> dict:
    argv = ["solve-ti", "--k", str(k), "--J", str(J), "--beta", _arg(rng.uniform(0.1, 3.0))]
    return _cli(argv, "solutions")


def _solve_periodic(rng: random.Random, k: int, subgroup: str) -> dict:
    if k == 200:
        theta = rng.uniform(*CYCLE_THETA_200) if subgroup == "full" else rng.uniform(1.01, 1.3)
    else:
        theta = rng.uniform(1.05, 3.0)
    argv = ["solve-periodic", "--k", str(k), "--theta", _arg(theta), "--subgroup", subgroup]
    return _cli(argv, "solutions")


def _verify_period2(rng: random.Random) -> dict:
    argv = ["verify", "--source", "period2", "--k", "200",
            "--theta", _arg(rng.uniform(*CYCLE_THETA_200))]
    return _cli(argv, "verify")


def _build_nonti(rng: random.Random, k: int, depth: int) -> dict:
    t, s = _path_pair(rng, k)
    argv = ["build-nonti", *_fm(k, rng.uniform(2.0, 3.0)), "--t", str(t), "--s", str(s),
            "--depth", str(depth)]
    return _cli(argv, "slice")


def _verify_nonti(rng: random.Random, k: int, depth: int, perturb: float = 0.0) -> dict:
    t, s = _path_pair(rng, k)
    argv = ["verify", "--source", "nonti", *_fm(k, rng.uniform(2.0, 3.0)),
            "--t", str(t), "--s", str(s), "--depth", str(depth)]
    if perturb:
        return _cli(argv + ["--perturb", f"{perturb:.3e}"], "none", expect="exit3")
    return _cli(argv, "verify")


def _verify_ti(rng: random.Random, k: int, depth: int, branch: str,
               perturb: float = 0.0, expect: str = "ok") -> dict:
    argv = ["verify", "--source", "ti", *_fm(k, rng.uniform(2.0, 3.0)),
            "--depth", str(depth), "--branch", branch]
    if perturb:
        return _cli(argv + ["--perturb", f"{perturb:.3e}"], "none", expect="exit3")
    return _cli(argv, "verify", expect=expect)


def _sample(rng: random.Random, k: int, depth: int, count: int, expect: str = "ok") -> dict:
    argv = ["sample", *_fm(k, rng.uniform(2.0, 3.0)), "--depth", str(depth),
            "--seed", str(rng.randrange(10 ** 6)), "--count", str(count),
            "--branch", rng.choice(["low", "mid", "high"])]
    return _cli(argv, "sample", expect=expect)


def _pinned_sample() -> dict:
    return _cli(list(PINNED_SAMPLE["argv"]), "sample", sha256=PINNED_SAMPLE["sha256"])


def _fm_params(rng: random.Random, k: int) -> dict:
    return {"k": k, "J": -1.0, "beta": round(rng.uniform(2.0, 3.0), 4)}


def _path_field(rng: random.Random, k: int, depth: int) -> dict:
    t, s = _path_pair(rng, k)
    return {"type": "path_pair", **_fm_params(rng, k), "t": t, "s": s, "depth": depth}


def _constant_field(rng: random.Random, k: int, depth: int) -> dict:
    return {"type": "constant", **_fm_params(rng, k), "branch": rng.randrange(3),
            "depth": depth}


def _two_cycle_field(rng: random.Random, k: int, depth: int) -> dict:
    # Genuine chess-board cycles need k far past the enumeration cap (the
    # instability criterion first holds near k = 200), so at oracle scale the
    # two-cycle solver returns its equal pair, expanded as a two-coset field.
    return {"type": "two_cycle", "k": k, "theta": round(rng.uniform(1.05, 3.0), 4),
            "depth": depth}


def _alternating(rng: random.Random, k: int, n_starts: int = 100) -> dict:
    # k = 2 is left out: whether its Newton polish stops early depends on the
    # random starts, which would make the op's cost depend on the seed.
    return _lib("periodic.alternating_limits",
                {"k": k, "theta": round(rng.uniform(0.2, 0.95), 4),
                 "n_starts": n_starts, "seed": rng.randrange(1000)})


def _two_cycle_full(rng: random.Random, k: int) -> dict:
    theta = rng.uniform(*CYCLE_THETA_200) if k == 200 else rng.uniform(1.05, 3.0)
    return _lib("periodic.solve_two_cycle_full",
                {"k": k, "theta": round(theta, 4), "n_starts": 100,
                 "seed": rng.randrange(1000)})


def _parity(rng: random.Random, k: int, parity_set: list[int], afm: bool) -> dict:
    # theta is kept away from 1 and from the slow ferromagnetic range below
    # 0.6, where the sweep count (and so the cost) swings with the starts.
    theta = rng.uniform(1.3, 3.0) if afm else rng.uniform(0.6, 0.9)
    if k == 200:
        theta = rng.uniform(*CYCLE_THETA_200)
    return _lib("periodic.iterate_parity_system",
                {"k": k, "theta": round(theta, 4), "parity_set": parity_set,
                 "n_starts": 50, "seed": rng.randrange(1000)})


def _threshold(rng: random.Random, k: int) -> dict:
    c = TRANSITION_BETA[k]
    return _lib("ti.locate_symmetric_threshold",
                {"J": -1.0, "k": k, "lo": round(rng.uniform(c - 0.5, c - 0.05), 4),
                 "hi": round(rng.uniform(c + 0.05, c + 0.5), 4)})


def _light_touch(rng: random.Random) -> list[dict]:
    """One small op per layer that the workload otherwise leaves idle.

    Keeps every per-layer timer measured on every workload, so a layer that
    is meant to stay unmoved still reports a figure rather than a constant 0.
    """
    return [
        _solve_ti(rng, 2, -1),
        _phase_diagram(rng, 2, 5),
        _solve_periodic(rng, 200, "full"),
        _build_nonti(rng, 2, 3),
        _verify_ti(rng, 2, 1, "high"),
        _sample(rng, 2, 2, 100),
        _alternating(rng, 3, n_starts=20),
        _parity(rng, 2, [1], afm=True),
        _threshold(rng, 2),
        _lib("measure.log_partition", {"field": _path_field(rng, 2, 4), "n": 2}),
        _lib("measure.dlr_breakdown", {"field": _constant_field(rng, 2, 2), "n": 1}),
    ]


# The op shapes below are chosen so that op_p50_ms and op_p90_ms each fall
# inside a block of ops of one shape and similar cost, not in a gap between
# shapes, where they would jump with small shifts in cost:
# solver_sweep: p50 in solve-ti / solve-periodic, p90 in the 4D Newton solves;
# deep_fields: p50 in build-nonti k=2 depth 8, p90 in the ~0.1 s depth-10 ops;
# exact_oracles: p50 in the small verify ops, p90 in verify --source ti k=8.

def solver_sweep(rng: random.Random) -> list[dict]:
    ops = [_phase_diagram(rng, k, n)
           for k, n in [(2, 60), (3, 50), (2, 40), (4, 40), (3, 30), (4, 20), (2, 20)]]
    ops += [_solve_ti(rng, k, J) for k in range(2, 7) for J in (-1, 1) for _ in range(4)]
    ops += [_solve_periodic(rng, k, sub) for k in (2, 3) for sub in ("full", "1,2")
            for _ in range(3)]
    ops += [_solve_periodic(rng, 200, sub) for sub in ("full", "1,2") for _ in range(3)]
    ops += [_verify_period2(rng) for _ in range(3)]
    ops += [_alternating(rng, k) for k in (3, 5) for _ in range(4)]
    ops += [_two_cycle_full(rng, k) for k in (2, 200)]
    ops += [_parity(rng, k, parity_set, afm) for k in (2, 3)
            for parity_set in ([1], [1, 2], list(range(1, k + 2)))
            for afm in (False, True, True)]
    ops.append(_parity(rng, 200, list(range(1, 202)), afm=True))
    ops += [_threshold(rng, k) for k in (2, 3, 3)]
    ops += _light_touch(rng)
    return ops


def deep_fields(rng: random.Random) -> list[dict]:
    ops = [_build_nonti(rng, 2, d) for d in [8] * 16 + [9] * 3 + [10] * 3 + [11, 12]]
    ops += [_build_nonti(rng, 3, d) for d in [6] * 6 + [7, 8]]
    ops += [_verify_nonti(rng, 2, d) for d in [8] * 3 + [9, 10]]
    ops += [_verify_nonti(rng, 3, d) for d in [6, 6, 7]]
    fields = [(_path_field(rng, 2, 10), [1, 2, 3, 4, 5, 6, 8, 10, 10]),
              (_path_field(rng, 2, 9), [1, 2, 3, 4, 5, 6, 9]),
              (_path_field(rng, 3, 7), [1, 2, 3, 4, 5, 6])]
    for fld, depths in fields:
        for n in depths:
            ops.append(_lib("measure.log_partition", {"field": fld, "n": n}))
            ops.append(_lib("measure.root_marginal", {"field": fld, "n": n}))
    for _ in range(4):
        t, s = _path_pair(rng, 2)
        ops.append(_lib("nonti.root_convergence",
                        {**_fm_params(rng, 2), "t": t, "s": s, "depths": list(range(4, 11))}))
    ops += [_sample(rng, 2, d, c) for d, c in [(5, 500), (6, 400), (7, 300), (8, 200)]]
    ops += [_sample(rng, 3, 5, 300), _pinned_sample()]
    ops += _light_touch(rng)
    return ops


def exact_oracles(rng: random.Random) -> list[dict]:
    ops = [_verify_ti(rng, k, depth, branch) for k in range(2, 8) for depth in (1, 2)
           for branch in ("low", "mid", "high")]
    ops += [_verify_ti(rng, 8, depth, branch) for depth in (1, 2)
            for branch in ("low", "mid", "high") for _ in range(2)]
    ops += [_verify_ti(rng, 9, 1, "mid"), _verify_ti(rng, 10, 1, "low")]
    ops += [_verify_nonti(rng, 2, d) for d in (2, 2, 3, 3, 3, 4, 4, 4)]
    ops += [_verify_nonti(rng, 3, d) for d in (2, 2, 3)]
    ops += [_verify_ti(rng, k, 2, "mid", perturb=rng.uniform(1e-4, 1e-2)) for k in (2, 3, 4, 6)]
    ops += [_verify_nonti(rng, 2, d, perturb=rng.uniform(1e-4, 1e-2)) for d in (2, 3, 4)]
    fields = [(_constant_field(rng, k, 2), k) for k in (2, 3, 5, 8)]
    fields += [(_two_cycle_field(rng, k, 2), k) for k in (2, 4)]
    fields += [(_path_field(rng, 2, 3), 2), (_path_field(rng, 3, 3), 3)]
    for fld, k in fields:
        n_max = 2 if k == 2 else 1
        ops.append(_lib("measure.compatibility_oracle", {"field": fld, "n": n_max}))
        ops.append(_lib("measure.symmetry_check", {"field": fld, "n": n_max}))
        ops.append(_lib("measure.dlr_breakdown", {"field": fld, "n": n_max - 1}))
    ops += [_verify_ti(rng, k, 1, "high", expect="cap") for k in (11, 11, 12, 12, 13, 14, 15)]
    ops += [_sample(rng, k, 1, 100, expect="cap") for k in (11, 12, 13, 14, 16, 20)]
    ops += _light_touch(rng)
    return ops


_OP_LISTS = {"solver_sweep": solver_sweep, "deep_fields": deep_fields,
             "exact_oracles": exact_oracles}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list for a workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _OP_LISTS[workload](rng)
    rng.shuffle(ops)
    return ops
