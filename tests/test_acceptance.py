"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 asserts that the count transition sits at the
tangency-condition closed form (critical_beta); direct root counting
(confirmed by companion-matrix root solves of the polynomial form) places
the actual 1 -> 3 transition elsewhere, so that criterion fails and stays
red rather than being patched over.  The decisions log next to the repo
carries the full analysis.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sostree import boundary, measure, nonti, periodic, ti
from sostree.model import ModelParams
from sostree.tree import SubgroupSpec, Word

import reference


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def symmetric_constant_field(params, z, depth):
    return boundary.constant_field(np.array([0.0, math.log(z)]), params, depth)


def test_criterion_01_critical_point_reproduction():
    t0 = time.perf_counter()
    closed2 = ti.critical_beta(-1.0, 2)
    closed3 = ti.critical_beta(-1.0, 3)
    found2 = ti.locate_symmetric_threshold(-1.0, 2, 1.0, 2.5)
    found3 = ti.locate_symmetric_threshold(-1.0, 3, 0.5, 2.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(found2 - closed2) <= 1e-6 and abs(found3 - closed3) <= 1e-6
          and elapsed < 5.0)
    report(1, ok,
           f"count transition k=2 at {found2:.7f} vs closed form {closed2:.7f}, "
           f"k=3 at {found3:.7f} vs {closed3:.7f} ({elapsed:.1f}s); "
           f"the closed form marks where the tangency wedge opens, the count "
           f"bisection (companion-matrix confirmed) transitions later")


def test_criterion_02_afm_uniqueness_sweep():
    t0 = time.perf_counter()
    worst_z0 = 0.0
    n_checked = 0
    for J in (0.5, 1.0, 2.0):
        for k in (2, 3, 4):
            for i in range(1, 51):
                sols = ti.solve(ModelParams(k=k, m=2, J=J, beta=0.1 * i)).full_solutions
                n_checked += 1
                if len(sols) != 1:
                    report(2, False, f"J={J} k={k} beta={0.1 * i:.1f}: {len(sols)} solutions")
                worst_z0 = max(worst_z0, abs(sols[0][0] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_z0 <= 1e-9 and elapsed < 30.0
    report(2, ok, f"{n_checked} parameter sets, single solution each, "
                  f"max |z0-1| = {worst_z0:.2e} ({elapsed:.1f}s)")


def test_criterion_03_classification():
    info = ti.scalar_family_info(10.0, 2)
    exact = (abs(info.x1 - 2.0) <= 1e-12 and abs(info.x2 - 5.0) <= 1e-12
             and abs(info.nu1 - 0.03125) <= 1e-12 and abs(info.nu2 - 0.032) <= 1e-12)
    rng = np.random.default_rng(20240817)
    agreed = 0
    trials = 0
    while trials < 100:
        k = int(rng.integers(1, 7))
        b = float(np.exp(rng.uniform(np.log(0.2), np.log(50))))
        fam = ti.scalar_family_info(b, k)
        if trials % 2 == 0 and fam is not None:
            a = float(np.exp(rng.uniform(np.log(fam.nu1), np.log(fam.nu2))))
        else:
            a = float(np.exp(rng.uniform(np.log(1e-3), np.log(10))))
        count, label, fam2 = ti.classify_scalar_family(a, b, k)
        if label == ti.BOUNDARY_TWO:
            continue
        if fam2 is not None and min(abs(a - fam2.nu1) / fam2.nu1,
                                    abs(a - fam2.nu2) / fam2.nu2) < 1e-9:
            continue
        trials += 1
        if len(reference.scan_scalar_roots(a, b, k)) == count:
            agreed += 1
    ok = exact and agreed == 100
    report(3, ok, f"tangency data exact to 1e-12: {exact}; "
                  f"scan oracle agreement {agreed}/100")


def test_criterion_04_compatibility_families():
    t0 = time.perf_counter()
    fm = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    afm = ModelParams(k=2, m=2, J=1.0, beta=1.0)
    worst = 0.0
    for z in ti.solve_symmetric_roots(fm):
        worst = max(worst, measure.compatibility_oracle(
            symmetric_constant_field(fm, z, 2), fm, 2))
    worst = max(worst, measure.compatibility_oracle(
        symmetric_constant_field(afm, ti.solve_symmetric_roots(afm)[0], 2), afm, 2))
    built = nonti.build_field(0.0, 1.5, fm, 2)
    worst = max(worst, measure.compatibility_oracle(built.field, fm, 2))
    built2 = nonti.build_field(0.4, 1.1, fm, 2)
    worst = max(worst, measure.compatibility_oracle(built2.field, fm, 2))

    cyc_params = ModelParams.from_theta(k=200, m=2, theta=1.07)
    psi = ti.SliceMap(cyc_params.theta, cyc_params.k)
    cycles = [s for s in periodic.solve_two_cycle_symmetric(cyc_params)
              if s.type == periodic.CYCLE]
    scalar_resid = max(max(abs(s.z - float(psi(s.t))), abs(s.t - float(psi(s.z))))
                       for s in cycles)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and scalar_resid <= 1e-12 and elapsed < 60.0
    report(4, ok, f"ball-enumeration violation {worst:.2e} (<= 1e-10), "
                  f"two-cycle scalar residual {scalar_resid:.2e} (<= 1e-12) "
                  f"({elapsed:.1f}s)")


def test_criterion_05_dlr_oracle():
    fm = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    afm = ModelParams(k=2, m=2, J=1.0, beta=1.0)
    fields = [symmetric_constant_field(fm, z, 2) for z in ti.solve_symmetric_roots(fm)]
    fields.append(symmetric_constant_field(afm, ti.solve_symmetric_roots(afm)[0], 2))
    fm_fields = [fm] * 3 + [afm]
    fields.append(nonti.build_field(0.0, 1.5, fm, 2).field)
    fm_fields.append(fm)
    worst = max(measure.dlr_breakdown(fld, p, 0).max_violation
                for fld, p in zip(fields, fm_fields))
    negatives = [measure.dlr_breakdown(boundary.perturb_field(fld, 0.5), p, 0).max_violation
                 for fld, p in zip(fields, fm_fields)]
    ok = worst <= 1e-10 and min(negatives) >= 1e-3
    report(5, ok, f"verified fields max violation {worst:.2e} (<= 1e-10); "
                  f"perturbed-field violations all >= {min(negatives):.2e} (>= 1e-3)")


def test_criterion_06_derivative_bounds():
    total_violations = 0
    worst_margin = []
    for theta in (0.3, 0.5, 0.9, 1.5):
        rep = reference.derivative_bounds(theta, 10_000, seed=2024)
        total_violations += sum(rep.violations.values())
        worst_margin.append(max(rep.worst["partial"] - rep.bound_partial,
                                rep.worst["pair"] - rep.bound_pair,
                                rep.worst["slice"] - rep.bound_slice,
                                rep.worst["first"] - rep.bound_first))
    ok = total_violations == 0
    report(6, ok, f"0 violations required, found {total_violations}; "
                  f"worst margin below ceilings {max(worst_margin):.2e}")


def test_criterion_07_fm_no_chess_board():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_resid = 0.0
    for k in (2, 3, 5):
        for theta in np.arange(0.2, 0.951, 0.05):
            p = ModelParams.from_theta(k=k, m=2, theta=float(theta))
            h, l, resid = periodic.alternating_limits(p, n_starts=100, seed=11)
            worst_resid = max(worst_resid, float(resid.max()))
            worst_gap = max(worst_gap, float(np.max(np.abs(h - l))))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-10 and worst_gap <= 1e-8
    report(7, ok, f"48 (theta, k) points x 100 starts: all limits converged "
                  f"(max residual {worst_resid:.2e}) with max |z-t| gap "
                  f"{worst_gap:.2e} (<= 1e-8) ({elapsed:.1f}s)")


def test_criterion_08_afm_chess_board():
    t0 = time.perf_counter()
    p200 = ModelParams.from_theta(k=200, m=2, theta=1.07)
    value, holds = periodic.cycle_instability(p200)
    psi = ti.SliceMap(p200.theta, p200.k)
    sols = periodic.solve_two_cycle_symmetric(p200)
    cycles = sorted((s for s in sols if s.type == periodic.CYCLE), key=lambda s: s.z)
    ok_point = (holds and len(cycles) == 2
                and abs(float(psi(cycles[1].z)) - cycles[0].z) <= 1e-10
                and all(max(abs(s.z - float(psi(s.t))), abs(s.t - float(psi(s.z)))) <= 1e-12
                        for s in cycles))
    never = True
    for k in range(2, 11):
        for theta in np.geomspace(1.01, 10.0, 50):
            p = ModelParams.from_theta(k=k, m=2, theta=float(theta))
            _, h = periodic.cycle_instability(p)
            cyc = any(s.type == periodic.CYCLE
                      for s in periodic.solve_two_cycle_symmetric(p))
            if h or cyc:
                never = False
    elapsed = time.perf_counter() - t0
    ok = ok_point and never and elapsed < 10.0
    report(8, ok, f"instability value {value:.6f} > 1 at (k=200, theta=1.07) with a "
                  f"machine-precision cycle; criterion never holds and no cycle found "
                  f"for k=2..10 on the theta grid ({elapsed:.1f}s)")


def test_criterion_09_parity_subgroups():
    fm = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    afm = ModelParams(k=2, m=2, J=1.0, beta=1.0)
    ti_sols = {p: ti.solve(p).full_solutions for p in (fm, afm)}
    all_ti = True
    for r in (1, 2):
        for a_set in itertools.combinations((1, 2, 3), r):
            spec = SubgroupSpec(k=2, parity_set=frozenset(a_set))
            for p in (fm, afm):
                res = periodic.iterate_parity_system(spec, p, n_starts=50, seed=42)
                if not (res.converged.all() and res.ti.all()):
                    all_ti = False
                    continue
                for h in res.h_even:
                    z = np.exp(h)
                    if min(abs(z[0] - s[0]) + abs(z[1] - s[1])
                           for s in ti_sols[p]) > 1e-6:
                        all_ti = False

    p200 = ModelParams.from_theta(k=200, m=2, theta=1.07)
    spec_full = SubgroupSpec(k=200, parity_set=frozenset(range(1, 202)))
    res = periodic.iterate_parity_system(spec_full, p200, n_starts=50, seed=7)
    cycles_appear = bool(res.converged.all() and (~res.ti).any())
    ok = all_ti and cycles_appear
    report(9, ok, f"proper parity subgroups (6 of them, 50 starts each, two regimes): "
                  f"only translation-invariant limits: {all_ti}; even-word subgroup in "
                  f"the two-cycle regime: chess-board limits appear: {cycles_appear}")


def test_criterion_10_sandwich_bounds():
    fm = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    z_lo, _, z_hi = ti.solve_symmetric_roots(fm)
    rng = np.random.default_rng(99)
    hi = (fm.k + 1) / fm.k
    ok = True
    worst = (np.inf, -np.inf)
    for _ in range(100):
        t, s = sorted(rng.uniform(0.0, hi, size=2))
        built = nonti.build_field(t, s, fm, 8)
        z1 = np.exp([h[1] for h in built.field.laws[1:]])
        z0_exact = all(h[0] == 0.0 for h in built.field.laws[1:])
        ok &= bool(z0_exact and np.all(z1 >= z_lo - 1e-9) and np.all(z1 <= z_hi + 1e-9))
        worst = (min(worst[0], float(z1.min())), max(worst[1], float(z1.max())))
    report(10, ok, f"100 path pairs at depth 8: laws inside "
                   f"[{z_lo:.6f}, {z_hi:.6f}] (observed [{worst[0]:.6f}, {worst[1]:.6f}]), "
                   f"slice component exactly zero")


def test_criterion_11_endpoint_fields_and_convergence():
    fm = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    z_lo, _, z_hi = ti.solve_symmetric_roots(fm)
    h_minus = np.array([0.0, math.log(z_lo)])
    h_plus = np.array([0.0, math.log(z_hi)])
    hi = (fm.k + 1) / fm.k
    low = nonti.build_field(0.0, 0.0, fm, 6)
    high = nonti.build_field(hi, hi, fm, 6)
    exact_low = all(np.array_equal(h, h_plus) for h in low.field.laws[1:])
    exact_high = all(np.array_equal(h, h_minus) for h in high.field.laws[1:])
    conv = nonti.root_convergence(0.0, hi, fm, depths=list(range(4, 11)))
    cauchy = conv.cauchy and all(b < a for a, b in
                                 zip(conv.differences, conv.differences[1:]))
    ok = exact_low and exact_high and cauchy
    report(11, ok, f"endpoint fields exactly constant: {exact_low and exact_high}; "
                   f"mixed-pair root differences strictly decreasing over depths 4..10: "
                   f"{cauchy} (last gap {conv.differences[-1]:.2e})")


def test_criterion_12_sampling_fidelity():
    fm = ModelParams(k=2, m=2, J=-1.0, beta=2.0)
    z_mid = ti.solve_symmetric_roots(fm)[1]
    fld = symmetric_constant_field(fm, z_mid, 3)
    samples, _ = measure.sample(fld, fm, 3, seed=424242, count=100_000)
    emp = np.bincount(samples[:, 0], minlength=3) / samples.shape[0]
    exact = measure.root_marginal(fld, fm, 3, method="transfer")
    tv = 0.5 * float(np.abs(emp - exact).sum())
    flip_gap = abs(emp[0] - emp[2])
    ok = tv <= 0.01 and flip_gap <= 0.01
    report(12, ok, f"100000 seeded samples at depth 3: root-marginal total variation "
                   f"{tv:.4f} (<= 0.01), |P(0)-P(2)| = {flip_gap:.4f} (<= 0.01)")
