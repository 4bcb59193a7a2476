import argparse
import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sostree import boundary, cli, measure, nonti, periodic, roots, ti
from sostree.cli import main
from sostree.model import UsageError

TRUE_THRESHOLD_K2 = 1.9562154316


def run(args):
    return main(args)


def test_solve_ti_fm(tmp_path):
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--k", "2", "--m", "2", "--J", "-1", "--beta", "2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classification"] == "THREE"
    assert len(data["symmetric_roots"]) == 3
    assert data["beta_cr"] == pytest.approx(math.log(17) / 2, abs=1e-12)
    manifest = json.loads((tmp_path / "ti.json.manifest.json").read_text())
    assert manifest["command"] == "solve-ti"
    assert manifest["config"]["params"]["k"] == 2


def test_solve_ti_afm_unique(tmp_path):
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--k", "2", "--m", "2", "--J", "1", "--beta", "2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["full_solutions"]) == 1
    assert data["full_solutions"][0][0] == pytest.approx(1.0, abs=1e-9)


def test_solve_ti_beta_zero(tmp_path):
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--k", "2", "--m", "2", "--J", "-1", "--beta", "0",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["symmetric_roots"]) == 1
    assert data["symmetric_roots"][0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("J, root", [(-1, 4.0 / math.sqrt(8.0)), (1, 2.0 / math.exp(400.0))])
def test_k1_far_from_theta_one_is_solved(J, root, capsys):
    # theta^2 of the reduced family leaves the floats at theta = e^(-+400),
    # where these exited 2; the slice root 4/(theta + hypot(theta, sqrt 8))
    # is a normal float
    beta = ["--J", str(J), "--beta", "400"]
    assert run(["solve-ti", "--k", "1", *beta]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "UNIQUE"
    assert data["symmetric_roots"] == [pytest.approx(root, rel=1e-15)]
    assert run(["phase-diagram", "--k", "1", "--J", str(J), "--beta-min", "399",
                "--beta-max", "401", "--beta-step", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1"] * 3
    assert run(["verify", "--source", "ti", "--k", "1", *beta]) == 0
    if J < 0:
        assert run(["solve-periodic", "--k", "1", *beta, "--subgroup", "full"]) == 0


def test_theta_flag_replaces_coupling(tmp_path):
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--k", "2", "--theta", "0.5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["params"]["theta"] == pytest.approx(0.5, abs=1e-15)
    assert run(["solve-ti", "--k", "2", "--theta", "0.5", "--J", "1",
                "--beta", "1", "--out", str(out)]) == 2


def test_config_file(tmp_path):
    cfg = tmp_path / "params.txt"
    cfg.write_text("k = 2\nm = 2\nJ = -1.0\nbeta = 2.0\n")
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["beta"] == 2.0


def test_config_file_m_must_be_2(tmp_path):
    cfg = tmp_path / "params.txt"
    cfg.write_text("k = 2\nm = 3\nJ = -1.0\nbeta = 2.0\n")
    assert run(["solve-ti", "--config", str(cfg)]) == 2


def test_critical_beta_command(tmp_path):
    out = tmp_path / "cb.json"
    assert run(["critical-beta", "--k", "2", "--J", "-1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["beta_cr"] == pytest.approx(math.log(17) / 2, abs=1e-12)
    assert run(["critical-beta", "--k", "2", "--J", "1", "--out", str(out)]) == 2


def test_phase_diagram_brackets_observed_jump(tmp_path):
    out = tmp_path / "pd.csv"
    assert run(["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1.90",
                "--beta-max", "2.00", "--beta-step", "0.001", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,root_count,z_minus,z_mid,z_plus,beta_cr_flag"
    rows = [line.split(",") for line in lines[1:]]
    flags = [i for i, r in enumerate(rows) if r[5] == "1"]
    assert len(flags) == 1
    i = flags[0]
    lo, hi = float(rows[i - 1][0]), float(rows[i][0])
    assert lo < TRUE_THRESHOLD_K2 < hi
    assert int(rows[i - 1][1]) == 1 and int(rows[i][1]) == 3


def test_phase_diagram_is_flat_between_closed_form_and_transition(tmp_path):
    # the count does not jump between 1.3 and 1.55 at k=2 (see decisions log)
    out = tmp_path / "pd.csv"
    assert run(["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1.3",
                "--beta-max", "1.55", "--beta-step", "0.01", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert all(int(r[1]) == 1 for r in rows)
    assert all(r[5] == "0" for r in rows)


def test_phase_diagram_afm_constant_count(tmp_path):
    out = tmp_path / "pd.csv"
    assert run(["phase-diagram", "--k", "2", "--J", "1", "--beta-min", "0.2",
                "--beta-max", "2.0", "--beta-step", "0.2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert all(int(r[1]) == 1 for r in rows)


def test_phase_diagram_usage_errors(tmp_path):
    assert run(["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "2",
                "--beta-max", "1", "--beta-step", "0.1"]) == 2


@pytest.mark.parametrize("beta_min", [1.0, 1.7])
def test_phase_diagram_betas_increase_at_the_finest_step(beta_min, capsys):
    # rows print beta rounded to 12 decimals, so the finest step allowed, 1e-12,
    # still gives each row its own beta
    assert run(["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", repr(beta_min),
                "--beta-max", repr(beta_min + 2e-11), "--beta-step", "1e-12"]) == 0
    betas = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(betas) >= 20 and all(b > a for a, b in zip(betas, betas[1:]))


def test_solve_periodic_cycle_point(tmp_path):
    out = tmp_path / "per.json"
    assert run(["solve-periodic", "--k", "200", "--m", "2", "--theta", "1.07",
                "--subgroup", "full", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["instability"]["holds"]
    kinds = sorted(s["type"] for s in data["solutions"])
    assert kinds == ["CYCLE", "CYCLE", "FIXED"]
    assert not data["I_nonempty"]


def test_solve_periodic_proper_subgroup(tmp_path):
    out = tmp_path / "per.json"
    assert run(["solve-periodic", "--k", "2", "--m", "2", "--J", "1", "--beta", "1",
                "--subgroup", "1,3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["I_nonempty"]
    assert all(s["type"] == "FIXED" for s in data["solutions"])
    assert run(["solve-periodic", "--k", "2", "--J", "1", "--beta", "1",
                "--subgroup", "9"]) == 2


def test_build_nonti_endpoint_constant(tmp_path):
    out = tmp_path / "field.json"
    assert run(["build-nonti", "--k", "2", "--m", "2", "--J", "-1", "--beta", "2",
                "--t", "0", "--s", "0", "--depth", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    laws = {e["vertex"]: e["h"] for e in data["entries"]}
    non_root = [tuple(h) for v, h in laws.items() if v != "e"]
    assert len(set(non_root)) == 1
    assert non_root[0][0] == 0.0
    assert set(data["component_map"].values()) == {3}


def test_build_nonti_usage_errors(tmp_path):
    assert run(["build-nonti", "--k", "2", "--J", "-1", "--beta", "0.5",
                "--t", "0", "--s", "0", "--depth", "4"]) == 2
    assert run(["build-nonti", "--k", "2", "--J", "-1", "--beta", "2",
                "--t", "1.0", "--s", "0.5", "--depth", "4"]) == 2


def test_sample_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sample", "--k", "2", "--m", "2", "--J", "-1", "--beta", "2",
            "--depth", "2", "--seed", "42", "--count", "200", "--branch", "mid"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().split("\n", 1)[0]
    assert header.split(",")[0] == "e"
    assert len(out1.read_text().strip().split("\n")) == 201


def test_verify_ti_passes(tmp_path):
    assert run(["verify", "--source", "ti", "--k", "2", "--m", "2", "--J", "-1",
                "--beta", "2", "--branch", "high", "--depth", "2"]) == 0
    assert run(["verify", "--source", "ti", "--k", "2", "--m", "2", "--J", "1",
                "--beta", "1", "--depth", "2"]) == 0


def test_verify_detects_corruption(tmp_path, capsys):
    code = run(["verify", "--source", "ti", "--k", "2", "--m", "2", "--J", "-1",
                "--beta", "2", "--branch", "high", "--depth", "2",
                "--perturb", "0.1"])
    assert code == 3
    text = capsys.readouterr().out
    assert "FAIL" in text and "compatibility" in text


def test_verify_free_regime_uniform(tmp_path):
    assert run(["verify", "--source", "ti", "--k", "2", "--m", "2", "--J", "0",
                "--beta", "1", "--depth", "2"]) == 0


def test_verify_period2(tmp_path, capsys):
    assert run(["verify", "--source", "period2", "--k", "200", "--m", "2",
                "--theta", "1.07"]) == 0
    assert run(["verify", "--source", "period2", "--k", "2", "--m", "2",
                "--J", "-1", "--beta", "2"]) == 2
    # the perturbed expanded field is the negative control; the cycle itself
    # is not perturbed, so its alternating residual still passes
    capsys.readouterr()
    assert run(["verify", "--source", "period2", "--k", "200", "--theta", "1.07",
                "--perturb", "1e-3"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS alternating_residual") for line in lines)
    assert any(line.startswith("FAIL expanded_field_residual") for line in lines)


def test_verify_period2_refuses_theta_before_the_scan(capsys):
    # at theta <= 1 the symmetric scan once ran first, so the user read its
    # float-range message instead of the criterion's domain
    argv = ["verify", "--source", "period2", "--k", "200", "--J", "-1", "--beta", "4"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: instability criterion applies to theta > 1 only\n"


def test_verify_period2_builds_its_field_at_depth(monkeypatch, capsys):
    depths = []
    expand = periodic.expand_two_cycle_field

    def spy(z, t, params, depth):
        depths.append(depth)
        return expand(z, t, params, depth)

    monkeypatch.setattr(periodic, "expand_two_cycle_field", spy)
    assert run(["verify", "--source", "period2", "--k", "200", "--theta", "1.07",
                "--depth", "1"]) == 0
    assert "PASS expanded_field_residual" in capsys.readouterr().out
    assert run(["verify", "--source", "period2", "--k", "200", "--theta", "1.07"]) == 0
    assert depths == [1, 2]


def test_verify_nonti(tmp_path, capsys):
    assert run(["verify", "--source", "nonti", "--k", "2", "--m", "2", "--J", "-1",
                "--beta", "2", "--t", "0.3", "--s", "1.2", "--depth", "4"]) == 0
    # the oracles check the requested depth, past the enumeration cap too
    assert "PASS compatibility_oracle(n=4)" in capsys.readouterr().out
    assert run(["verify", "--source", "nonti", "--k", "2", "--m", "2", "--J", "-1",
                "--beta", "2", "--t", "0.3", "--s", "1.2", "--depth", "4",
                "--perturb", "0.1"]) == 3


def test_verify_past_the_enumeration_cap(capsys):
    # 3^22 configurations in the depth-1 ball at k = 20: the oracles compare
    # chains from the message sweep instead of enumerating
    assert run(["verify", "--source", "ti", "--k", "20", "--J", "-1", "--beta", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines)
    assert "compatibility_oracle(n=2)" in captured.out
    assert captured.err == ""
    assert run(["verify", "--source", "ti", "--k", "12", "--J", "-1", "--beta", "2",
                "--perturb", "1e-3"]) == 3
    assert capsys.readouterr().err == ""


def test_verify_sweeps_each_depth_once(monkeypatch, capsys):
    # past the cap, compatibility at depth 1, DLR at depth 0 (the depth 1
    # vs 0 chain gap) and the spin flip at depth 1 share two sweeps
    depths = []
    sweep = measure._messages
    monkeypatch.setattr(measure, "_messages",
                        lambda fld, params, n: depths.append(n) or sweep(fld, params, n))
    assert run(["verify", "--source", "ti", "--k", "11", "--J", "-1", "--beta", "2",
                "--depth", "1", "--branch", "high"]) == 0
    assert sorted(depths) == [0, 1]
    assert capsys.readouterr().out == (
        "PASS compatibility_residual<=1e-10 = 0.0\n"
        "PASS compatibility_oracle(n=1)<=1e-10 = 2.6818746422617694e-24\n"
        "PASS dlr_oracle(n=0)<=1e-10 = 2.6818746422617694e-24\n"
        "PASS spin_flip_symmetry = True\n")


@pytest.mark.parametrize("k", ["10", "12"])
def test_verify_depth_one_checks_the_root_law(k, capsys):
    # at depth 1 the residual checks only the root convention; the frozen
    # high-branch measure hides a 1e-3 shift from the probability oracles
    argv = ["verify", "--source", "ti", "--k", k, "--J", "-1", "--beta", "2", "--depth", "1"]
    assert run(argv) == 0
    assert "PASS compatibility_residual<=1e-10 = 0.0\n" in capsys.readouterr().out
    assert run(argv + ["--perturb", "1e-3"]) == 3
    assert "FAIL compatibility_residual<=1e-10" in capsys.readouterr().out


@pytest.mark.parametrize("argv, n_checks", [
    (["--source", "ti", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "2"], 3),
    (["--source", "ti", "--k", "12", "--J", "-1", "--beta", "2", "--depth", "1"], 3),
    (["--source", "period2", "--k", "200", "--theta", "1.08"], 1),
    (["--source", "nonti", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "2",
      "--t", "1", "--s", "1"], 3),
])
def test_verify_fails_every_check_of_a_nan_field(argv, n_checks, capsys):
    # each residual, compatibility and DLR row of a nan field reads nan and
    # fails, past the cap (k = 12) too; Python's max(0.0, nan) is 0.0, which
    # let them pass
    assert run(["verify", *argv, "--perturb", "nan"]) == 3
    checks = [row for row in capsys.readouterr().out.splitlines()
              if row.split()[1].startswith(("compatibility", "dlr", "expanded_field"))]
    assert len(checks) == n_checks
    assert all(row.startswith("FAIL ") and row.endswith(" = nan") for row in checks)


@pytest.mark.parametrize("argv, line", [
    (["verify", "--source", "ti", "--k", "6", "--J", "-1", "--beta", "2.1493", "--depth", "1",
      "--branch", "low"], "PASS compatibility_residual<=1e-10 = 0.0\n"),
    (["verify", "--source", "period2", "--k", "200", "--theta", "1.0958", "--depth", "1"],
     "PASS expanded_field_residual<=1e-10 = 0.0\n"),
])
def test_verify_root_row_is_exact(argv, line, capsys):
    # the field builders sum the root's k+1 successor updates the way the
    # residual does, so the root row, the one row a depth-1 ball checks,
    # reads 0.0
    assert run(argv) == 0
    assert line in capsys.readouterr().out


# Balls (times samples) past measure.SIZE_CAP: once a numpy MemoryError
# traceback, or for build-nonti a process grown until the kernel killed it.
OVERSIZED = [
    ["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "40"],
    ["verify", "--source", "nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3",
     "--s", "1.2", "--depth", "60"],
    ["sample", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "40"],
    ["sample", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "1",
     "--count", "1000000000000"],
    ["build-nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3", "--s", "1.2",
     "--depth", "60"],
    # two slice cycles; the depth-2 ball of order 4000 has 16,008,002 vertices
    ["verify", "--source", "period2", "--k", "4000", "--theta", "1.017"],
    # the depth-4 ball of order 200 has 1,616,080,402 vertices
    ["verify", "--source", "period2", "--k", "200", "--theta", "1.07", "--depth", "4"],
]


# sha256 of each command's output file.  The field outputs were pinned from
# the dict-based field implementation and the solver outputs from the generic
# sorted-LSE update, before the m = 2 kernel; both must reproduce every byte.
PINNED_OUTPUTS = [
    (["build-nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3", "--s", "1.2",
      "--depth", "8"], "0af6be2cecda761f6ab8e5e41fd0e86e9d76b6460c0dbc74c412d105f29a3f4e"),
    (["build-nonti", "--k", "3", "--J", "-1", "--beta", "2", "--t", "0.2", "--s", "1.1",
      "--depth", "5"], "5ef72df215ae1834e5755247ebd2f1a3e0227fd8495ad3f90dafb728dcfbcdca"),
    (["sample", "--k", "3", "--J", "-1", "--beta", "2", "--depth", "4", "--seed", "7",
      "--count", "50", "--branch", "mid"],
     "d86f76ef04de20f64cc1733713950f91cd6da5740c45e36232b87d4e32eb8e5f"),
    (["solve-ti", "--k", "2", "--J", "-1", "--beta", "2.3"],
     "3ae18fec0ba9370688596806559932b2c3fa5417ec41e59721b9f620c5c329b4"),
    (["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1.90", "--beta-max", "2.00",
      "--beta-step", "0.005"], "6622bafe7fbe70437728d3e48e29831062499d686ee4181b96a7938f2581e6e2"),
    (["solve-periodic", "--k", "200", "--theta", "1.08", "--subgroup", "full"],
     "f9ce4cb5ab906dc4a4a58378fffb125af623555c6cc0a6adc84192e65e3b0204"),
    (["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "2", "--branch", "high",
      "--depth", "2"], "0ef38f39a3660041b2a3a40973cbeab5331e537e0c3b85046360b1b761e617ea"),
    (["verify", "--source", "nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3",
      "--s", "1.2", "--depth", "2"],
     "2cbf9960beb5f9d2644e604aed9a69f84d978aa0af9cfc5430e2ee0767955f26"),
    (["verify", "--source", "period2", "--k", "200", "--theta", "1.07"],
     "adaafe10b8fd4254bc004734b1f60559e1e96fd6dfb6b9336a550d09c2b12f60"),
    # the k = 3 count transition sits at beta = 1.4957
    (["phase-diagram", "--k", "3", "--J", "-1", "--beta-min", "1.48", "--beta-max", "1.52",
      "--beta-step", "0.002"], "781d9e466d268f18f48bf9968b4b825fc11d91e92b16d445f877407915d969cb"),
    (["phase-diagram", "--k", "2", "--J", "1", "--beta-min", "0.5", "--beta-max", "3",
      "--beta-step", "0.1"], "b48c8f6a714a4c1fd2a23696be6511fbd7628e28e18b11879524bdbda1a5e48e"),
    (["phase-diagram", "--k", "200", "--J", "-1", "--beta-min", "0.2", "--beta-max", "3.5",
      "--beta-step", "0.1"], "b88d85523d859091f087eebcab1d858fd9df11802d48e8d3c8eab94c7846f3ab"),
    # the slice map's derivative overflows in this scan
    (["solve-ti", "--k", "200", "--J", "-1", "--beta", "1.612"],
     "7e486c276a4e540bf74f6b788ab0a21d7348ce70b5975f9588ab5b6ab9f8c057"),
    # the deep-ball shapes of the field JSON and sample CSV writers
    (["build-nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3", "--s", "1.2",
      "--depth", "10"], "856a29821e405b63df94d3e03d931a2b397846dc5e68b17cc48f05641c4d464d"),
    (["build-nonti", "--k", "3", "--J", "-1", "--beta", "2", "--t", "0.2", "--s", "1.1",
      "--depth", "7"], "30ffe0681e6f18e01de5bb2d890555dcfc9c2a644c1396f7974dba4a86b9e5c8"),
    (["sample", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "8", "--seed", "3",
      "--count", "200", "--branch", "mid"],
     "c1438d516c68dfdfc54b90190bfd6a29bad3177729bf371dc1a929dd12cb4905"),
    # two distinct law rows (the root and every other vertex) and one component
    (["build-nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0", "--s", "0",
      "--depth", "6"], "b2f39a320983af040982ea70b4300edd9a180a05838ba28a15b823c8a3cee001"),
    # the bench's PINNED_SAMPLE
    (["sample", "--k", "2", "--J", "-1", "--beta", "2.5", "--depth", "5", "--seed", "7",
      "--count", "300"], "9d94f6e3783b223a0a9f6d83c7f2ee9a8e7a9c0b103580132bfc876d0dc6da31"),
]


@pytest.mark.parametrize("argv, sha256", PINNED_OUTPUTS,
                         ids=["nonti-k2-depth8", "nonti-k3-depth5", "sample-k3-depth4",
                              "solve-ti-k2", "phase-diagram-k2", "solve-periodic-k200",
                              "verify-ti-k2", "verify-nonti-k2", "verify-period2-k200",
                              "phase-diagram-k3", "phase-diagram-k2-afm", "phase-diagram-k200",
                              "solve-ti-k200", "nonti-k2-depth10", "nonti-k3-depth7",
                              "sample-k2-depth8", "nonti-k2-depth6-constant",
                              "sample-k2-depth5-bench"])
def test_output_bytes_are_pinned(tmp_path, argv, sha256):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_antiferromagnetic_solves_run_no_constant_law_newton(tmp_path, monkeypatch):
    # at theta >= 1 solve_full returns the slice alone, with no Newton polish
    def refuse(*args, **kwargs):
        raise AssertionError("batched_newton ran at theta >= 1")

    monkeypatch.setattr(ti, "batched_newton", refuse)
    out = tmp_path / "out"
    assert run(["solve-ti", "--k", "3", "--J", "1", "--beta", "2", "--out", str(out)]) == 0
    argv, sha256 = next((argv, sha) for argv, sha in PINNED_OUTPUTS if argv[0] == "solve-periodic")
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("argv", [
    ["solve-periodic", "--k", "3", "--theta", "2", "--subgroup", "full"],
    ["verify", "--source", "period2", "--k", "200", "--theta", "1.07"],
])
def test_slice_commands_scan_the_slice_once(argv, monkeypatch):
    # the slice cycle comes from a bracket at z*, so the symmetric-root scan
    # is the one slice scan, and the one log-grid sign scan, a command runs
    scans, grids = [], []
    lanes, log_grid = ti.symmetric_root_lanes, roots._log_grid
    monkeypatch.setattr(ti, "symmetric_root_lanes",
                        lambda sweep: scans.append(sweep) or lanes(sweep))
    monkeypatch.setattr(roots, "_log_grid", lambda *a: grids.append(a) or log_grid(*a))
    assert run(argv) == 0
    assert len(scans) == 1 and len(grids) == 1


def _load_workloads():
    """bench/workloads.py as a module; it imports nothing from sostree."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 over every CLI op of a workload at seeds 1-3: argv, exit code,
# stdout, stderr and the bytes of --out and its manifest.  A change that
# moves these bytes on purpose re-pins the digest and lists what moved.
WORKLOAD_DIGESTS = {
    "solver_sweep": "af6b3d807bbb0330944c7e7547a2f060cc6c53330f04803cfe8ff81cd7592e78",
    "deep_fields": "9919a69858128afe162619205abe8c57dd0dc8f2a272f765ce4bb81a512ba48b",
    "exact_oracles": "c5034a57ae4c482023dd2c0d33d7f35abfbe39733a1a60684cf8e26c4b5a426a",
}


@pytest.mark.parametrize("workload", list(WORKLOAD_DIGESTS))
def test_workload_cli_outputs_keep_their_bytes(tmp_path, workload, capsys):
    make_ops = _load_workloads().make_ops
    out, manifest = tmp_path / "out", tmp_path / "out.manifest.json"
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for op in make_ops(workload, seed):
            if op["kind"] != "cli":
                continue
            code = run(op["argv"] + ["--out", str(out)])
            std = capsys.readouterr()
            files = [hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                     for path in (out, manifest)]
            digest.update(json.dumps([op["argv"], code, std.out, std.err, *files]).encode())
            for path in (out, manifest):
                path.unlink(missing_ok=True)
    assert digest.hexdigest() == WORKLOAD_DIGESTS[workload]


def test_sample_depth_zero(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sample", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "0",
                "--count", "5", "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "e" and len(lines) == 7 and all(v in "012" for v in lines[1:6])


@pytest.mark.parametrize("argv", [
    ["sample", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "-1"],
    ["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "-1"],
    ["solve-ti", "--k", "2", "--J", "-1", "--beta", "nan"],
    ["solve-ti", "--k", "2", "--theta", "nan"],
    ["solve-ti", "--k", "2", "--theta", "-1"],
    ["solve-ti", "--k", "2", "--J", "1", "--beta", "1000"],
    ["verify", "--source", "nonti", "--k", "2", "--J", "1", "--beta", "1",
     "--t", "0.3", "--s", "1.2", "--depth", "3"],
    ["solve-ti", "--config", "no-such-params.txt"],
    # the high symmetric root, about theta^(-k) = e^800, leaves the float range
    ["solve-ti", "--k", "200", "--J", "-1", "--beta", "4"],
    ["phase-diagram", "--k", "200", "--J", "-1", "--beta-min", "2", "--beta-max", "4",
     "--beta-step", "1"],
    # theta^(-k) = e^(-1000) underflows
    ["solve-ti", "--k", "200", "--J", "1", "--beta", "5"],
    # p^2 of the tangency quadratic, about b^2 = e^(4 beta) / 4, overflows
    ["solve-ti", "--k", "2", "--J", "-1", "--beta", "200"],
    # a non-finite step once gave one row and exit 0, an infinite beta-max no end
    ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1", "--beta-max", "2",
     "--beta-step", "nan"],
    ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1", "--beta-max", "2",
     "--beta-step", "inf"],
    ["phase-diagram", "--k", "2", "--J", "0", "--beta-min", "1", "--beta-max", "inf",
     "--beta-step", "1"],
    # b += step left b unchanged, or ran on to beta-max + 1e-15 in steps of
    # 1e-304, so the sweep once grew until memory ran out
    ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1", "--beta-max", "2",
     "--beta-step", "1e-300"],
    ["phase-diagram", "--k", "2", "--J", "0", "--beta-min", "1e20",
     "--beta-max", "1.0000000000001e20", "--beta-step", "1000"],
    ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "0", "--beta-max", "1e-300",
     "--beta-step", "1e-304"],
    # a step below 1e-12 printed 21 rows with only 3 distinct (rounded) betas
    ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1",
     "--beta-max", "1.000000000002", "--beta-step", "1e-13"],
    # every command requires m = 2
    ["solve-periodic", "--k", "2", "--m", "3", "--theta", "1.5"],
    ["sample", "--k", "2", "--m", "1", "--J", "-1", "--beta", "2"],
    ["verify", "--source", "ti", "--k", "2", "--m", "3", "--J", "-1", "--beta", "2"],
    ["verify", "--source", "period2", "--k", "200", "--m", "3", "--theta", "1.07"],
    ["verify", "--source", "nonti", "--k", "2", "--m", "1", "--J", "-1", "--beta", "2",
     "--t", "0.3", "--s", "1.2"],
    ["phase-diagram", "--k", "0", "--J", "-1", "--beta-min", "1", "--beta-max", "2",
     "--beta-step", "0.5"],
    ["phase-diagram", "--k", "2", "--J", "1000", "--beta-min", "1", "--beta-max", "2",
     "--beta-step", "0.5"],
    ["sample", "--k", "2", "--J", "-1", "--beta", "2", "--count", "-1"],
    ["sample", "--k", "2", "--J", "-1", "--beta", "2", "--seed", "-1"],
    ["critical-beta", "--k", "2"],
    ["critical-beta", "--J", "-1"],
    ["phase-diagram", "--J", "-1", "--beta-min", "1", "--beta-max", "2", "--beta-step", "0.5"],
    ["phase-diagram", "--k", "2", "--beta-min", "1", "--beta-max", "2", "--beta-step", "0.5"],
    # argparse's own refusals printed a usage block of several lines
    ["build-nonti", "--k", "2", "--J", "-1", "--beta", "2", "--s", "1.2"],
    ["build-nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3"],
    ["build-nonti", "--k", "2", "--J", "-1", "--beta", "2"],
    ["solve-ti", "--k", "abc", "--J", "-1", "--beta", "2"],
    ["no-such-command"],
    ["--", "solve-ti", "--k", "2", "--J", "-1", "--beta", "2"],
    [],
    ["solve-ti", "--k", "2", "--J", "-1", "--beta", "2", "--no-such-flag"],
    ["sample", "--k", "2", "--J", "-1", "--beta", "2", "--branch", "xx"],
    ["verify", "--k", "2", "--J", "-1", "--beta", "2"],
    ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "1", "--beta-max", "2"],
    ["critical-beta", "--k", "2", "--J", "-inf"],
    # the chess-board criterion, which period2 checks, holds only for theta > 1
    ["verify", "--source", "period2", "--k", "2", "--theta", "0.5"],
    *OVERSIZED,
    # a non-finite J printed "beta_cr": NaN, and 0.0 at -inf, with exit 0;
    # a subnormal one printed Infinity
    ["critical-beta", "--k", "2", "--J", "nan"],
    ["critical-beta", "--k", "2", "--J=-inf"],
    ["critical-beta", "--k", "2", "--J=-1e-320"],
])
def test_bad_input_is_a_one_line_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "1", "--branch", "low"],
     "branch 'low' needs three symmetric solutions, found 1"),
    (["solve-periodic", "--k", "2", "--theta", "2", "--subgroup", "1,x"],
     "bad subgroup spec '1,x': use 'full' or e.g. '1,3'"),
    (["solve-ti", "--k", "2", "--J", "-1"], "give --J and --beta (or --theta, or --config)"),
    (["build-nonti", "--k", "2", "--J", "-1", "--beta", "2.5", "--t", "0.2", "--s", "0.8",
      "--depth", "0"], "depth must be >= 1"),
    (["solve-ti", "--config", "{config}"], "--config {config}: malformed config line: 'k 2'"),
    # past theta = 1.3e154 at k = 1, 1 - theta^2 in psi'(z*) overflows
    (["solve-periodic", "--k", "1", "--J", "1", "--beta", "400", "--subgroup", "full"],
     "psi'(z*) at k = 1, theta = 5.221469689764144e+173 leaves the float range"),
], ids=["branch-needs-three", "bad-subgroup", "no-beta", "nonti-depth-0", "config-no-equals",
        "k1-slope-overflows"])
def test_each_refusal_names_its_cause(tmp_path, argv, message, capsys):
    config = tmp_path / "p.txt"
    config.write_text("k 2\nm = 2\nJ = -1\nbeta = 2\n")
    assert run([a.format(config=config) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"


@pytest.mark.parametrize("where, failed", [("missing/x.json", "missing/x.json"), (".", "."),
                                           ("x.json", "x.json.manifest.json")],
                         ids=["missing-dir", "directory", "manifest-directory"])
def test_unwritable_out_is_a_one_line_usage_error(tmp_path, where, failed, capsys):
    # the failed write once printed a FileNotFoundError or IsADirectoryError
    # traceback; a manifest that could not be written once left its output
    # behind, and the message named the output
    if failed != where:
        (tmp_path / failed).mkdir()
    out = tmp_path / where
    assert run(["solve-ti", "--k", "2", "--J", "-1", "--beta", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {tmp_path / failed}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_help_still_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: sostree") and all(name in out for name in cli.COMMANDS)
    assert run(["solve-ti", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sostree solve-ti")


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    # argparse takes "--" for the command name
    ["--", "solve-ti", "--k", "2", "--J", "-1", "--beta", "2"],
])
def test_unknown_commands_are_refused_with_every_name(argv, capsys):
    # these get the parser of every command, so the message lists them all
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: ")
    assert all(name in err.partition("choose from")[2] for name in cli.COMMANDS)


# one run of each command, for comparing the one-command parser with the full one
ONE_ARGV = {
    "solve-ti": ["--k", "2", "--J", "-1", "--beta", "2", "--out", "x.json"],
    "critical-beta": ["--k", "3", "--J=-1e-3"],
    "phase-diagram": ["--k", "2", "--J", "-1", "--beta-min", "1", "--beta-max", "2",
                      "--beta-step", "0.5"],
    "solve-periodic": ["--config", "p.txt", "--subgroup", "1,3"],
    "build-nonti": ["--k", "2", "--theta", "0.5", "--t", "0.3", "--s", "1.2"],
    "sample": ["--k", "2", "--J", "-1", "--beta", "2", "--branch", "low", "--count", "5"],
    "verify": ["--source", "nonti", "--k", "2", "--J", "-1", "--beta", "2", "--t", "0.3",
               "--s", "1.2", "--depth", "3", "--perturb", "1e-3"],
}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_parser_registers_only_the_command_being_run():
    # a named command gets its own parser alone, with no subparsers; it gives
    # the help of the full parser's subcommand and, on the flags after the
    # name, the Namespace the full parser gives for the whole argv
    assert list(ONE_ARGV) == list(cli.COMMANDS)
    full = _subcommands(cli.build_parser([]))
    assert list(full) == list(cli.COMMANDS)
    for name, flags in ONE_ARGV.items():
        argv = [name, *flags]
        one = cli.build_parser(argv)
        assert one.prog == f"sostree {name}"
        assert not any(isinstance(a, argparse._SubParsersAction) for a in one._actions)
        assert one.format_help() == full[name].format_help()
        assert one.parse_args(flags) == cli.build_parser([]).parse_args(argv)


@pytest.mark.parametrize("argv", [[], ["verify", "--source", "ti"]], ids=["every", "one"])
def test_one_parser_build_queries_the_terminal_once(monkeypatch, argv):
    # argparse queried it in every add_argument, 16 times for verify
    real, queries = shutil.get_terminal_size, []

    def counting(*args, **kwargs):
        queries.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    parser = cli.build_parser(argv)
    parser.format_help()
    assert len(queries) == 1


@pytest.mark.parametrize("columns", ["80", "200"])
def test_help_wraps_as_argparse_wraps_it(monkeypatch, capsys, columns):
    # every --help, printed with the width queried once per build, equals
    # argparse's own help, whose formatter queries the terminal itself
    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser([])
    commands = _subcommands(parser)
    for p in [parser, *commands.values()]:
        p.formatter_class = argparse.HelpFormatter
    for argv, p in [(["--help"], parser), *(([name, "--help"], commands[name])
                                          for name in cli.COMMANDS)]:
        assert run(argv) == 0
        assert capsys.readouterr().out == p.format_help()


def test_process_entry_point_matches_main(monkeypatch, capsys):
    # `python -m sostree.cli`, like the console script, calls main() with no
    # argv, which then reads sys.argv
    monkeypatch.setenv("COLUMNS", "80")     # the same help wrapping on both sides
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).resolve().parents[1]))
    for argv in (["solve-ti", "--k", "2", "--J", "-1", "--beta", "2"], ["--help"]):
        proc = subprocess.run([sys.executable, "-m", "sostree.cli", *argv],
                              capture_output=True, text=True, check=False)
        assert (proc.returncode, proc.stdout) == (run(argv), capsys.readouterr().out)


def test_internal_failures_are_not_usage_errors(monkeypatch, capsys):
    # a ValueError from inside the package is a fault, not refused input: exit 1
    # with a traceback, where it once gave exit 2 and one line
    def broken(*args, **kwargs):
        raise ValueError("broken successor sums")
    monkeypatch.setattr(nonti, "successor_law_sums", broken)
    assert run(["build-nonti", "--k", "2", "--J", "-1", "--beta", "2",
                "--t", "0.3", "--s", "1.2", "--depth", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "ValueError: broken successor sums" in err
    # a library caller that catches ValueError still catches every refusal
    assert issubclass(ti.FloatRangeError, UsageError) and issubclass(UsageError, ValueError)


def test_negative_values_take_exponent_notation(tmp_path, capsys):
    outs = [tmp_path / "exp.json", tmp_path / "int.json"]
    for J, out in zip(["-1e0", "-1"], outs):
        assert run(["solve-ti", "--k", "2", "--J", J, "--beta", "2", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (Path(f"{outs[0]}.manifest.json").read_bytes()
            == Path(f"{outs[1]}.manifest.json").read_bytes())
    verify = ["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "2", "--depth", "1"]
    reports = []
    for perturb in (["--perturb", "-1e-3"], ["--perturb=-1e-3"]):
        assert run(verify + perturb) == 3
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and "FAIL" in reports[0]


@pytest.mark.parametrize("argv", OVERSIZED)
def test_oversized_requests_are_refused_before_anything_is_built(argv, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("a ball was built")
    for module, name in [(boundary, "constant_field"), (nonti, "build_field"),
                         (measure, "sample"), (periodic, "expand_two_cycle_field")]:
        monkeypatch.setattr(module, name, build)
    assert run(argv) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--source", "nonti", "--k", "2", "--J", "-1", "--beta", "200", "--t", "0.3",
     "--s", "1.2", "--depth", "30"],
    ["verify", "--source", "period2", "--k", "2", "--theta", "1.5", "--depth", "30"],
], ids=["nonti", "period2"])
def test_verify_refuses_the_ball_size_before_any_scan(argv, monkeypatch, capsys):
    # nonti once scanned the roots first and printed the scan's float-range
    # error; period2 without a cycle built no field, so never checked the size
    def scan(*args, **kwargs):
        raise AssertionError("a scan ran")
    monkeypatch.setattr(ti, "solve_symmetric_roots", scan)
    monkeypatch.setattr(periodic, "cycle_instability", scan)
    assert run(argv) == 2
    assert capsys.readouterr().err == (f"error: the depth-30 ball of order 2 exceeds "
                                       f"{measure.SIZE_CAP} vertices\n")


def test_size_cap_counts_vertices_times_samples():
    # 1 + 3 (2^d - 1) vertices at k = 2: 6,291,454 at depth 21, twice that at 22
    cli._check_size(2, 21)
    with pytest.raises(cli.UsageError):
        cli._check_size(2, 22)
    cli._check_size(2, 10, count=3000)
    with pytest.raises(cli.UsageError):
        cli._check_size(2, 10, count=4000)
    # a zero count still builds the ball; k = 1 grows by two vertices a level
    with pytest.raises(cli.UsageError):
        cli._check_size(2, 40, count=0)
    cli._check_size(1, 4_999_999)
    for depth in (5_000_000, 10 ** 12):
        with pytest.raises(cli.UsageError):
            cli._check_size(1, depth)
    with pytest.raises(cli.UsageError):
        cli._check_size(200, 10 ** 12)


@pytest.mark.parametrize("argv, depths", [
    (["--source", "ti", "--depth", "1"], [0, 1]),
    (["--source", "ti", "--depth", "2"], [0, 1, 2]),
    (["--source", "nonti", "--t", "0.3", "--s", "1.2", "--depth", "2"], [0, 1, 2]),
])
def test_verify_enumerates_each_depth_once(argv, depths, monkeypatch):
    # compatibility, DLR and the spin flip share one table per depth
    calls = []
    build = measure.log_weight_table

    def counted(fld, params, n):
        calls.append(n)
        return build(fld, params, n)

    monkeypatch.setattr(measure, "log_weight_table", counted)
    assert run(["verify", "--k", "2", "--J", "-1", "--beta", "2", *argv]) == 0
    assert sorted(calls) == depths


def test_large_k_beta_solves_without_overflow(tmp_path, capsys):
    # theta^(-2k) = e^1200 overflowed in the root scan's grid bound
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--k", "200", "--J", "-1", "--beta", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classification"] == "THREE" and len(data["symmetric_roots"]) == 3
    assert capsys.readouterr().err == ""
    # sampling gets past the root scan, and the message sweep needs no enumeration
    assert run(["sample", "--k", "200", "--J", "-1", "--beta", "3", "--depth", "0",
                "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_large_beta_ferromagnet_is_solved(capsys):
    # from beta = 19.5 the tangency point x1 cancelled to 0 and every command
    # at k = 2 stopped with a ZeroDivisionError traceback
    for argv in (["solve-ti", "--k", "2", "--J", "-1", "--beta", "19.5"],
                 ["sample", "--k", "2", "--J", "-1", "--beta", "19.5", "--count", "3"],
                 ["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "19.5"],
                 ["solve-periodic", "--k", "2", "--J", "-1", "--beta", "177.5"],
                 ["phase-diagram", "--k", "2", "--J", "-1", "--beta-min", "19",
                  "--beta-max", "20", "--beta-step", "0.5"]):
        assert run(argv) == 0, argv
        assert capsys.readouterr().err == ""
    assert run(["solve-ti", "--k", "2", "--J", "-1", "--beta", "177.5"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "THREE"


def test_sample_past_the_enumeration_cap(tmp_path):
    # 3^14 configurations: the depth-1 ball at k = 12 is past the table cap
    out = tmp_path / "s.csv"
    assert run(["sample", "--k", "12", "--J", "-1", "--beta", "2", "--depth", "1",
                "--count", "5", "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert len(lines[0].split(",")) == 14 and len(lines) == 7


@pytest.mark.parametrize("beta", ["3", "3.5"])
def test_large_k_lists_every_root_and_flip_partner(tmp_path, beta):
    # the high root is e^600 and e^700: the 2D scan once stopped at e^690, and
    # the Jacobian overflowed past e^355, which dropped solutions
    out = tmp_path / "ti.json"
    assert run(["solve-ti", "--k", "200", "--J", "-1", "--beta", beta, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    sols = data["full_solutions"]
    for z in data["symmetric_roots"]:
        assert any(z0 == 1.0 and abs(z1 / z - 1.0) <= 1e-12 for z0, z1 in sols)
    # each solution's spin-flip partner (1/z0, z1/z0) is listed
    for z0, z1 in sols:
        assert min(abs(w0 * z0 - 1.0) + abs(w1 * z0 / z1 - 1.0) for w0, w1 in sols) <= 1e-9
    # the pair near h = +-(2k ln theta, k ln theta) has weights past e^1200,
    # which no float holds, so it is left out
    assert len(sols) == 5


def test_usage_exit_codes():
    assert run(["solve-ti"]) == 2              # missing --k
    assert run(["no-such-command"]) == 2
    assert run(["solve-ti", "--k", "2", "--m", "2", "--J", "-1", "--beta", "-3"]) == 2


def test_manifest_round_trip_reproduces_output(tmp_path):
    out1 = tmp_path / "r1.json"
    assert run(["solve-ti", "--k", "2", "--m", "2", "--J", "-1", "--beta", "2",
                "--out", str(out1)]) == 0
    manifest = json.loads((tmp_path / "r1.json.manifest.json").read_text())
    p = manifest["config"]["params"]
    out2 = tmp_path / "r2.json"
    assert run(["solve-ti", "--k", str(p["k"]), "--m", str(p["m"]),
                "--J", str(p["J"]), "--beta", str(p["beta"]),
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _argv_from_manifest(manifest: dict) -> list[str]:
    config = dict(manifest["config"])
    p = config.pop("params")
    argv = [manifest["command"], "--k", str(p["k"]), "--m", str(p["m"]),
            "--J", repr(p["J"]), "--beta", repr(p["beta"])]
    for key, value in config.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


@pytest.mark.parametrize("argv", [
    ["verify", "--source", "ti", "--k", "2", "--J", "-1", "--beta", "2", "--branch", "low"],
    ["verify", "--source", "nonti", "--k", "2", "--J", "-1", "--beta", "2",
     "--t", "0.3", "--s", "1.2"],
])
def test_verify_manifest_records_every_flag(tmp_path, argv):
    # the manifest's config alone reruns the command to the same bytes
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert run(argv + ["--out", str(out1)]) == 0
    manifest = json.loads((tmp_path / "r1.txt.manifest.json").read_text())
    assert run(_argv_from_manifest(manifest) + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
