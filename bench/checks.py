"""Output checks run by the worker after each op, untimed and untraced.

Each check returns `(ok, detail)`.  CLI checks read the op's `--out` file;
library checks look at the returned value.  Checks recompute with the
package's own building blocks (`law_map`, the closed-form classification,
table enumeration) rather than trusting the op's own verdict.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from sostree import boundary, measure, ti
from sostree.model import ModelParams
from sostree.tree import ball_size

RESIDUAL_TOL = 1e-10


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def fixed_point_residual(h, l, k: int, theta: float) -> float:
    """Defect of the alternating pair h = k F(l), l = k F(h) (h = l: a fixed point)."""
    h, l = np.asarray(h, dtype=float), np.asarray(l, dtype=float)
    return float(max(np.max(np.abs(h - k * boundary.law_map(l, 2, theta))),
                     np.max(np.abs(l - k * boundary.law_map(h, 2, theta)))))


def _worst(residuals) -> tuple[bool, str]:
    residuals = list(residuals)
    if not residuals:
        return False, "no solutions"
    worst = max(residuals)
    return worst <= RESIDUAL_TOL, f"{len(residuals)} solutions, worst residual {worst:.3e}"


def check_verify(text: str, argv) -> tuple[bool, str]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    return bool(lines) and not bad, bad[0] if bad else f"{len(lines)} PASS lines"


def check_phase(text: str, argv) -> tuple[bool, str]:
    k, J = int(_flag(argv, "--k")), float(_flag(argv, "--J"))
    rows = text.splitlines()[1:]
    compared = 0
    for row in rows:
        beta, count = row.split(",")[:2]
        form = ti.ReducedForm.from_params(ModelParams(k=k, m=2, J=J, beta=float(beta)))
        expected, label, _ = ti.classify_scalar_family(form.a, form.b, k)
        if label == ti.BOUNDARY_TWO:
            continue
        compared += 1
        if int(count) != expected:
            return False, f"beta={beta}: {count} roots, classification says {expected}"
    return bool(rows), f"{compared} of {len(rows)} rows match the classification"


def check_solutions(text: str, argv) -> tuple[bool, str]:
    """solve-ti / solve-periodic: every law re-checks through law_map."""
    data = json.loads(text)
    k, theta = data["params"]["k"], data["params"]["theta"]
    pairs = []
    if "full_solutions" in data:
        pairs += [(np.log(z), np.log(z)) for z in data["full_solutions"]]
        pairs += [(np.log([1.0, z]),) * 2 for z in data["symmetric_roots"]]
    else:
        pairs += [(np.log(z), np.log(z)) for z in data["ti_solutions"]]
        pairs += [(np.log(s["z_full"]), np.log(s["t_full"])) for s in data["solutions"]]
    return _worst(fixed_point_residual(h, l, k, theta) for h, l in pairs)


def check_slice(text: str, argv) -> tuple[bool, str]:
    entries = json.loads(text)["entries"]
    off = [e["vertex"] for e in entries if e["h"][0] != 0.0]
    return bool(entries) and not off, (f"h_0 != 0 at {off[0]}" if off
                                       else f"{len(entries)} laws on the slice")


CLI_CHECKS = {"verify": check_verify, "phase": check_phase,
              "solutions": check_solutions, "slice": check_slice}


def check_sample(first: Path, second: Path, sha256: str | None) -> tuple[bool, str]:
    a, b = first.read_bytes(), second.read_bytes()
    if a != b:
        return False, "two draws with the same seed differ"
    if sha256 is not None:
        digest = hashlib.sha256(a).hexdigest()
        if digest != sha256:
            return False, f"sha256 {digest} != pinned {sha256}"
    return True, f"{len(a)} bytes reproduced"


# -- library ops ----------------------------------------------------------

def _fits_cap(params: ModelParams, n: int) -> bool:
    return (params.m + 1) ** ball_size(params.k, n) <= measure.EXACT_TABLE_CAP


def lib_log_partition(value, fld, params, n) -> tuple[bool, str]:
    if not math.isfinite(value):
        return False, f"log Z = {value}"
    if not _fits_cap(params, n):
        return True, "finite; past the enumeration cap"
    exact = measure.log_partition(fld, params, n, method="enumerate")
    gap = abs(value - exact)
    return gap <= 1e-9 * max(1.0, abs(exact)), f"transfer vs enumeration gap {gap:.3e}"


def lib_root_marginal(value, fld, params, n) -> tuple[bool, str]:
    if np.any(value < 0) or abs(float(np.sum(value)) - 1.0) > 1e-12:
        return False, f"not a distribution: {value}"
    if not _fits_cap(params, n):
        return True, "distribution; past the enumeration cap"
    gap = float(np.max(np.abs(value - measure.root_marginal(fld, params, n, method="table"))))
    return gap <= RESIDUAL_TOL, f"transfer vs table gap {gap:.3e}"


def lib_root_convergence(report, t, s, params, depths) -> tuple[bool, str]:
    on_slice = all(h[0] == 0.0 for h in report.root_laws)
    finite = all(math.isfinite(d) for d in report.differences)
    ok = on_slice and finite and len(report.root_laws) == len(depths)
    return ok, f"last root-law gap {report.differences[-1]:.3e}"


def lib_alternating(result, params) -> tuple[bool, str]:
    h, l, resid = result
    keep = resid <= RESIDUAL_TOL
    return _worst(fixed_point_residual(h[i], l[i], params.k, params.theta)
                  for i in np.nonzero(keep)[0])


def lib_two_cycle_full(sols, params) -> tuple[bool, str]:
    return _worst(fixed_point_residual(np.log(s.full_pair[0]), np.log(s.full_pair[1]),
                                       params.k, params.theta) for s in sols)


def lib_parity(result, spec, params) -> tuple[bool, str]:
    """Every start reported as converged must be a true limit.

    Starts that do not converge are reported as such by the function, which
    is correct output: near theta = 2.03 at k = 2 the damped sweep on the
    even-word subgroup stalls for every start.  The count is kept in the
    op's detail.
    """
    conv = np.nonzero(result.converged)[0]
    counted = f"{conv.size} of {result.converged.size} starts converged"
    if not spec.is_full:
        ok = bool(np.all(result.ti[conv]))
        return ok, f"{counted}, all translation-invariant: {ok}"
    worst = max((fixed_point_residual(result.h_even[i], result.h_odd[i], params.k,
                                      params.theta) for i in conv), default=0.0)
    return worst <= RESIDUAL_TOL, f"{counted}, worst residual {worst:.3e}"


def lib_threshold(beta, J, k, lo, hi) -> tuple[bool, str]:
    def count(b):
        form = ti.ReducedForm.from_params(ModelParams(k=k, m=2, J=J, beta=b))
        return ti.classify_scalar_family(form.a, form.b, k)[0]

    below, above = count(beta - 1e-6), count(beta + 1e-6)
    return (below, above) == (1, 3), f"beta={beta:.9f}: counts {below} -> {above} across it"


def lib_oracle_value(value, fld, params, n) -> tuple[bool, str]:
    value = value.max_violation if isinstance(value, measure.DlrBreakdown) else value
    return value <= RESIDUAL_TOL, f"violation {value:.3e}"


def lib_symmetry(value, fld, params, n) -> tuple[bool, str]:
    return value is True, f"spin-flip symmetric: {value}"


LIB_CHECKS = {
    "measure.log_partition": lib_log_partition,
    "measure.root_marginal": lib_root_marginal,
    "nonti.root_convergence": lib_root_convergence,
    "periodic.alternating_limits": lib_alternating,
    "periodic.solve_two_cycle_full": lib_two_cycle_full,
    "periodic.iterate_parity_system": lib_parity,
    "ti.locate_symmetric_threshold": lib_threshold,
    "measure.compatibility_oracle": lib_oracle_value,
    "measure.dlr_breakdown": lib_oracle_value,
    "measure.symmetry_check": lib_symmetry,
}
