import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasitrace
from quasitrace import dynamics as DY
from quasitrace import lapack as LA
from quasitrace import spectrum as SP
from quasitrace import transfer as TR
from quasitrace import words as W
from quasitrace import xfloat
from quasitrace.cli import ConfigError, RunConfig, _fmt, main, parse_theta
from quasitrace.phase import PhasePoint, omega

# the child interpreter imports the same package as this one
PACKAGE_ROOT = str(Path(quasitrace.__file__).resolve().parents[1])


def run_python(args, cwd=None, env=None):
    """Run a fresh interpreter on `args` with this package importable."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, **(env or {})),
    )


def run_cli(args, cwd=None):
    return run_python(["-m", "quasitrace", *args], cwd=cwd)


# ---------------------------------------------------------------------------
# phase parsing and configuration
# ---------------------------------------------------------------------------

def test_parse_theta_decimal_and_fraction():
    assert parse_theta("0.25") == PhasePoint.from_fraction(1, 4)
    assert parse_theta("1/3") == PhasePoint.from_fraction(1, 3)
    assert parse_theta("0") == PhasePoint.zero()


def test_parse_theta_omega_forms():
    om = omega()
    assert parse_theta("omega") == om
    assert parse_theta("omega/2") == PhasePoint(om.raw // 2)
    assert parse_theta("3omega/4") == PhasePoint((om.raw * 3) // 4)
    assert parse_theta("3*omega/4") == parse_theta("3omega/4")


@pytest.mark.parametrize("bad", ["", "x", "1/0", "omega/0", "-0.5", "1..2", "*omega",
                                 "*omega/2"])
def test_parse_theta_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_theta(bad)


def test_config_round_trip():
    cfg = RunConfig(lam=5.0, thetas=("0", "1/2"), k_max=10,
                    energies=(-2.0, 8.0, 32), T_grid=(10.0, 100.0))
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


@pytest.mark.parametrize("field,value", [
    ("lam", -1.0),
    ("k_max", 99),
    ("energies", (3.0, -3.0, 64)),
    ("T_grid", (0.0,)),
    ("C1", 0.0),
    ("p", 1.5),
    ("thetas", ("nope",)),
    ("T_grid", (float("inf"),)),
    ("T_grid", (10.0, float("nan"))),
    ("C1", float("inf")),
    ("C1", float("nan")),
    ("N", DY.MAX_BOX + 1),  # an explicit box past the cap of --N auto
    ("energies", (-1e308, 1e308, 3)),  # hi - lo overflows to inf
])
def test_config_validation(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})


def test_config_rejects_two_tokens_for_one_phase():
    with pytest.raises(ConfigError, match="'0' and '1' name one phase"):
        RunConfig(thetas=("0", "1"))


@pytest.mark.parametrize("args, first, second", [
    (["dynamics", "--lambda", "6", "--p", "0.3", "--N", "100", "--T-grid", "10,100",
      "--theta", "0", "--theta", "1"], "0", "1"),
    (["traces", "--theta-list", "1/2,0.5"], "1/2", "0.5"),
], ids=["dynamics", "traces"])
def test_two_tokens_for_one_phase_exit_2_before_writing(tmp_path, capsys, args, first, second):
    # one box per phase and one label per row: two tokens for one point would
    # solve it twice and label every row with the last token
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: phase tokens {first!r} and {second!r} name one phase\n"
    assert not out.exists()


def test_a_repeated_timescale_exits_2_before_writing(tmp_path, capsys):
    # one record per phase and timescale: a repeat would solve its Abel kernel
    # twice and write every record of it twice
    out = tmp_path / "out"
    args = ["dynamics", "--lambda", "6", "--p", "0.3", "--N", "50", "--T-grid", "10,1e1"]
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: T grid repeats the timescale 10.0\n"
    assert not out.exists()
    with pytest.raises(ConfigError, match="repeats the timescale 100.0"):
        RunConfig(T_grid=(100.0, 10.0, 100))
    with pytest.raises(ValueError, match="repeats the timescale 10.0"):
        DY.dynamical_bound_check(6.0, [PhasePoint.zero()], [10.0, 30.0, 1e1], p_used=0.3, N=50)


@pytest.mark.parametrize("args", [
    ["--growth", "0:3"],
    ["--growth", "20:22"],
    ["--lambda", "4.5", "--growth", "6:7"],
    ["--lambda", "3", "--growth", "6:9"],  # no growth fit at this coupling, same rule
])
def test_short_growth_range_exit_2_before_writing(tmp_path, capsys, args):
    # fewer than three even levels leave no growth fit
    out = tmp_path / "out"
    assert main(["spectrum", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need at least three levels for a growth fit\n"
    assert not out.exists()


def test_fmt_writes_numpy_floats_as_numbers():
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(0.1) == "0.1"
    # the edge arrays at coupling 24 hold zero-width bands up to level 16
    rows = [_fmt(v) for level in range(17) for edges in SP.bands(level, 24.0) for v in edges]
    assert rows and not any("np." in row for row in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_words_command(tmp_path):
    code = main(["words", "--k-max", "8", "--subword-max", "30",
                 "--theta", "0.25", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "words.csv").read_text().splitlines()
    assert rows[0] == "k,fib,height,suffix,b_first,b_last,identity,distinct_rotations,census"
    assert len(rows) == 10
    payload = json.loads((tmp_path / "parity.json").read_text())
    assert payload["pass"] is True
    assert payload["classifications"][0]["theta"] == "0.25"


def test_words_degenerate_level_zero(tmp_path):
    code = main(["words", "--k-max", "0", "--subword-max", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "words.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the single level


def _drop_one_factor(subwords):
    def patched(*args, **kwargs):
        found = subwords(*args, **kwargs)
        return frozenset(list(found)[1:])
    return patched


def _neither(report):
    """A parity report in which neither class passes."""
    return dataclasses.replace(report, even_ok=False, odd_ok=False)


def _fail_right_side(classify):
    def patched(theta, k_max):
        right, left = classify(theta, k_max)
        return _neither(right), left
    return patched


@pytest.mark.parametrize("name, patch, failures", [
    ("fibonacci_identity_check", lambda fn: lambda k: 2,
     [f"fibonacci-identity k={k}" for k in range(1, 7)]),
    ("cyclic_permutations", lambda fn: lambda w: (fn(w)[0], fn(w)[1] - 1),
     [f"distinct-rotations k={k}" for k in range(7)]),
    ("subwords", _drop_one_factor, [f"census-count k={k}" for k in range(7)]),
    ("complexity_counts", lambda fn: lambda n: [c - 1 for c in fn(n)],
     [f"complexity n={n}" for n in range(1, 11)]),
    ("classify_phase_words", _fail_right_side,
     ["phase-classification: no parity class passes on the right side at theta=0"]),
], ids=["identity", "rotations", "census", "complexity", "classification"])
def test_words_gates_can_fail(tmp_path, monkeypatch, name, patch, failures):
    monkeypatch.setattr(W, name, patch(getattr(W, name)))
    assert main(["words", "--k-max", "6", "--subword-max", "10", "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "parity.json").read_text())
    assert payload["pass"] is False
    assert payload["failures"] == sorted(failures)


def test_a_phase_failing_a_parity_gate_keeps_every_phase_in_the_summary(tmp_path,
                                                                       monkeypatch):
    # the second of two phases fails the words gate on the left side and the
    # traces gate on the right side; the first keeps the entry of a clean run
    args = ["--k-max", "6", "--theta", "0", "--theta", "1/3"]
    words = ["words", "--subword-max", "10", *args]
    traces = ["traces", "--energies=-3:13:6", *args]
    clean = tmp_path / "clean"
    assert main([*words, "--out", str(clean)]) == 0
    assert main([*traces, "--out", str(clean)]) == 0

    classify, parity = W.classify_phase_words, TR.phase_trace_parity
    calls = []

    def classify_failing(theta, k_max):
        right, left = classify(theta, k_max)
        return (right, _neither(left)) if theta == parse_theta("1/3") else (right, left)

    def parity_failing(pair, refs):  # called once per phase, in order
        calls.append(pair)
        right, left = parity(pair, refs)
        return (_neither(right), left) if len(calls) == 2 else (right, left)

    monkeypatch.setattr(W, "classify_phase_words", classify_failing)
    monkeypatch.setattr(TR, "phase_trace_parity", parity_failing)
    assert main([*words, "--out", str(tmp_path)]) == 1
    assert main([*traces, "--out", str(tmp_path)]) == 1
    for name, key, failed, failure in (
            ("parity.json", "classifications", "left",
             "phase-classification: no parity class passes on the left side at theta=1/3"),
            ("traces_summary.json", "parity", "x",
             "trace-parity: no parity class passes on the right side at theta=1/3")):
        payload = json.loads((tmp_path / name).read_text())
        entries = json.loads((clean / name).read_text())[key]
        assert payload["failures"] == [failure]
        assert [entry["theta"] for entry in payload[key]] == ["0", "1/3"]
        assert payload[key][0] == entries[0]
        assert payload[key][1] == {**entries[1], failed: {"even_ok": False, "odd_ok": False}}


def test_traces_command(tmp_path):
    code = main(["traces", "--lambda", "10", "--k-max", "8",
                 "--energies=-3:13:6", "--theta", "0", "--theta", "1/2",
                 "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "traces.csv").read_text().splitlines()[0]
    assert header == "k,E,lambda,theta,x,dx"
    assert (tmp_path / "norms.csv").read_text().splitlines()[0] == \
        "L,E,lambda,theta,norm_sq"
    assert (tmp_path / "margins.csv").read_text().splitlines()[0] == \
        "k,E,lambda,theta,margin"
    summary = json.loads((tmp_path / "traces_summary.json").read_text())
    assert summary["pass"] is True


def test_traces_parity_at_strong_coupling(tmp_path):
    # the level-11 products reach norm 4.3e6 against traces near -12.1
    assert main(["traces", "--lambda", "11.923897424524766",
                 "--energies=12.095241866584063:12.2:2", "--k-max", "13",
                 "--theta", "0.3", "--out", str(tmp_path)]) == 0


def test_traces_free_case_all_parities(tmp_path):
    code = main(["traces", "--lambda", "0", "--k-max", "6",
                 "--energies=-2:2:5", "--theta", "0.37", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "traces_summary.json").read_text())
    parity = summary["parity"][0]
    assert parity["x"]["even_ok"] and parity["x"]["odd_ok"]
    assert parity["y"]["even_ok"] and parity["y"]["odd_ok"]


def test_traces_margin_gate_fails_on_scaled_norms(tmp_path, monkeypatch):
    # norm sums a millionth of their size: the margin 4 * sum**1.5 - |dx/dE|
    # goes negative wherever the derivative is not far below the true bound
    profile = TR.norm_profile
    monkeypatch.setattr(TR, "norm_profile", lambda *args: xfloat.mul(
        *profile(*args), *math.frexp(1e-6)))
    assert main(["traces", "--k-max", "8", "--energies=-3:13:6", "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "traces_summary.json").read_text())
    failed = {(int(k), float(E)) for k, E in
              (re.fullmatch(r"norm-derivative-margin: norm/derivative inequality violated"
                            r" at k=(\d+), E=(\S+), lam=10.0", f).groups()
               for f in summary["failures"])}
    assert failed
    rows = (tmp_path / "margins.csv").read_text().splitlines()[1:]
    kept = {(int(row.split(",")[0]), float(row.split(",")[1])) for row in rows}
    assert not kept & failed
    assert len(kept) + len(failed) == 9 * 6  # levels 0..8 at every energy


def test_traces_sweeps_once_plus_once_per_phase(tmp_path, monkeypatch):
    # one sweep for the traces of all phases and the reference, and one per
    # phase for its norm sums; the margins read both
    calls = []
    sweep = TR._sweep

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(TR, "_sweep", counted)
    assert main(["traces", "--random-thetas", "2", "--k-max", "8",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 4


def test_spectrum_command(tmp_path):
    code = main(["spectrum", "--lambda", "10", "--k-max", "8",
                 "--growth", "6:12", "--out", str(tmp_path)])
    assert code == 0
    bands = (tmp_path / "bands.csv").read_text().splitlines()
    assert bands[0] == "k,lambda,band_index,E_lo,E_hi"
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["pass"] is True
    assert 5.0 <= payload["growth_fit"]["xi_hat"] <= 40.0


def test_spectrum_free_case(tmp_path):
    code = main(["spectrum", "--lambda", "0", "--k-max", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["band_counts"] == {str(k): 1 for k in range(5)}


def test_dynamics_command(tmp_path):
    code = main(["dynamics", "--lambda", "10", "--theta-list", "0,1/2",
                 "--T-grid", "10,50", "--p", "0.2", "--N", "300",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "dynamics.csv").read_text().splitlines()
    assert rows[0] == "lambda,theta,T,L,mass,edge_mass,trunc_bound,valid"
    assert len(rows) == 5
    payload = json.loads((tmp_path / "bound_report.json").read_text())
    assert "trend" not in payload  # the exponent was given, not calibrated
    assert payload["G_emp"] > 0
    assert payload["pass"] is True
    assert payload["trunc_tol"] == DY.TRUNC_TOL
    assert payload["N_used"] == {"0": 300, "1/2": 300}
    for row in payload["table"]:
        assert (row["trunc_bound"] == row["T"] * math.sqrt(row["edge_mass"] + DY.EDGE_ROUNDING)
                <= DY.TRUNC_TOL)
    for theta, steps in payload["box_steps"].items():
        assert steps == [[300, max(r["trunc_bound"] for r in payload["table"]
                                   if r["theta"] == theta)]]


def test_dynamics_auto_box_is_reported(tmp_path):
    args = ["dynamics", "--lambda", "10", "--theta-list", "0,1/2",
            "--T-grid", "10,1000", "--p", "0.15"]
    for run in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / run)]) == 0
        assert main(["report", "--out", str(tmp_path / run)]) == 0
    for name in ("dynamics.csv", "bound_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    payload = json.loads((tmp_path / "a" / "bound_report.json").read_text())
    for theta, steps in payload["box_steps"].items():
        assert steps[0][0] == 19  # the largest window, 2.8, plus the margin
        assert [n for n, _ in steps] == [19 * 2**i for i in range(len(steps))]
        assert all(worst > DY.TRUNC_TOL for _, worst in steps[:-1])
        assert steps[-1][1] <= DY.TRUNC_TOL
        assert payload["N_used"][theta] == steps[-1][0]
    worst = max(r["trunc_bound"] for r in payload["table"])
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["bound_report.json"]["trunc_bound"] == worst


def test_dynamics_auto_exponent_reports_its_certified_box(tmp_path):
    assert main(["dynamics", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "bound_report.json").read_text())
    trend = payload["trend"]
    assert trend["theta"] == "1/2"
    assert trend["p_fit"] == payload["p_used"]
    assert trend["N_used"] == 128 == trend["box_steps"][-1][0]
    assert trend["box_steps"][-1][1] <= DY.TRUNC_TOL
    assert all(worst > DY.TRUNC_TOL for _, worst in trend["box_steps"][:-1])


def test_dynamics_small_fixed_box_fails_the_certificate(tmp_path, capsys):
    code = main(["dynamics", "--lambda", "10", "--N", "20", "--out", str(tmp_path)])
    assert code == 1
    payload = json.loads((tmp_path / "bound_report.json").read_text())
    assert payload["pass"] is False
    assert payload["failures"]
    assert all(f.startswith("truncation theta=0 T=") for f in payload["failures"])
    assert "truncation theta=0 T=1000" in capsys.readouterr().out


def test_dynamics_box_limit_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DY, "MAX_BOX", 40)
    code = main(["dynamics", "--lambda", "10", "--out", str(tmp_path)])
    assert code == 2
    assert "no box up to N=40" in capsys.readouterr().err


def test_dynamics_huge_window_radius_is_one_short_line(tmp_path, capsys):
    # at C1 1e306 and T 1000, C1 * T**p passes float range: the radius is inf
    for C1, T_grid, radius in (("1e300", [], "1e+303"),
                               ("1e306", ["--T-grid", "1000"], "inf")):
        code = main(["dynamics", "--C1", C1, "--p", "1", *T_grid, "--out", str(tmp_path)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200
        assert lines[0] == f"error: window radius {radius} does not fit the box N=4096"


def test_dynamics_report_carries_solver_numbers(tmp_path):
    args = ["dynamics", "--lambda", "10", "--theta-list", "0,1/2",
            "--T-grid", "10,50", "--p", "0.2", "--N", "300"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("dynamics.csv", "bound_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    solver = json.loads((tmp_path / "a" / "bound_report.json").read_text())["solver"]
    assert sorted(solver) == ["0", "1/2"]
    for stats in solver.values():
        assert set(stats) == {"size", "deflated_small_weight", "deflated_close_poles",
                              "eigenvalue_gap", "moment_defect", "gram_defect"}
        assert stats["size"] == 601
        assert stats["deflated_small_weight"] >= 0 and stats["deflated_close_poles"] >= 0
        assert 0.0 <= stats["eigenvalue_gap"] <= 1e-12 * 12.0
        assert 0.0 <= stats["moment_defect"] <= 1e-8 * 12.0
        assert 0.0 <= stats["gram_defect"] <= 1e-9


def test_dynamics_auto_p_needs_strong_coupling(tmp_path):
    code = main(["dynamics", "--lambda", "2", "--T-grid", "10",
                 "--out", str(tmp_path)])
    assert code == 2


def test_report_command(tmp_path):
    main(["words", "--k-max", "4", "--subword-max", "10", "--out", str(tmp_path)])
    (tmp_path / "empty.csv").write_text("")  # a zero-byte file has no header to subtract
    (tmp_path / "header.csv").write_text("a,b\n")
    code = main(["report", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["parity.json"]["pass"] is True
    assert payload["bound_report.json"]["missing"] is True
    words = len((tmp_path / "words.csv").read_text().splitlines()) - 1
    assert words > 0
    assert payload["csv_rows"] == {"empty.csv": 0, "header.csv": 0, "words.csv": words}


# ---------------------------------------------------------------------------
# exit-code contract via real subprocesses
# ---------------------------------------------------------------------------

def test_exit_code_usage_error(tmp_path):
    proc = run_cli(["words", "--theta", "bogus", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "cannot parse phase" in proc.stderr


def test_exit_code_unknown_command():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_exit_code_non_finite_timescale(tmp_path, bad):
    proc = run_cli(["dynamics", "--p", "0.3", "--N", "50", "--T-grid", bad,
                    "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "timescales must be finite and positive" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_exit_code_non_finite_c1(tmp_path, bad):
    proc = run_cli(["dynamics", "--C1", bad, "--p", "0.3", "--N", "50", "--T-grid", "10",
                    "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "C1 must be finite and positive" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_energy_grid_span_overflow(tmp_path):
    proc = run_cli(["traces", "--energies=-1e308:1e308:3", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr == "error: energy grid span hi - lo must be finite\n"
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("args", [
    # (hi - lo) * i overflows at the last grid point, though hi - lo does not
    ["--lambda", "1", "--energies=-1e308:1e307:3"],
    # E - lambda overflows at every grid point
    ["--lambda", "1e308", "--energies=-1e308:-9e307:2"],
], ids=["grid-point", "E-minus-lambda"])
def test_energy_grid_overflow_exit_2_before_writing(tmp_path, capsys, args):
    # both wrote their files and then exited 1 on an infinite trace
    out = tmp_path / "out"
    assert main(["traces", *args, "--k-max", "6", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: energy grid points E and E - lambda must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["dynamics", "--N", "abc"], "N must be an integer in [1, 4096] or 'auto'"),
    (["dynamics", "--N", "5.5"], "N must be an integer in [1, 4096] or 'auto'"),
    (["dynamics", "--p", "abc"], "p must be in (0, 1] or 'auto'"),
    (["dynamics", "--T-grid", "abc"], "timescales must be finite and positive"),
    (["dynamics", "--T-grid", "10,,100"], "timescales must be finite and positive"),
    (["traces", "--energies=a:b:c"],
     "energy grid must be lo:hi:count with lo < hi, count >= 1"),
    (["traces", "--energies=-3:13:6.5"],
     "energy grid must be lo:hi:count with lo < hi, count >= 1"),
    (["spectrum", "--growth", "6:x"], "growth range must satisfy 0 <= kmin < kmax <= 22"),
    # an explicitly empty value, or an empty token, is not the default
    (["dynamics", "--T-grid="], "timescales must be finite and positive"),
    (["traces", "--energies="], "energy grid must be LO:HI:COUNT"),
    (["spectrum", "--growth="], "growth range must be KMIN:KMAX"),
    (["words", "--theta-list="], "cannot parse phase ''"),
    (["words", "--theta-list", "0,,1/3"], "cannot parse phase ''"),
    (["traces", "--theta-list", "0,1/3,"], "cannot parse phase ''"),
])
def test_exit_code_non_numeric_argument_names_its_option(tmp_path, capsys, args, message):
    assert main([*args, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_exit_code_jobs_below_one(tmp_path, jobs):
    proc = run_cli(["words", "--k-max", "3", "--subword-max", "5", "--jobs", jobs,
                    "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "jobs >= 1" in proc.stderr


def test_exit_code_report_on_a_missing_directory(tmp_path):
    missing = tmp_path / "no" / "such" / "dir"
    proc = run_cli(["report", "--out", str(missing)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: no output directory {str(missing)!r}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text,problem", [("{not json", "is not valid JSON: "),
                                          ("[]", "is not a JSON object")])
def test_exit_code_report_on_a_summary_that_is_not_json(tmp_path, text, problem):
    (tmp_path / "parity.json").write_text(text)
    proc = run_cli(["report", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: {str(tmp_path / 'parity.json')!r} {problem}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parity.json"]


@pytest.mark.parametrize("name,payload,problem", [
    ("bound_report.json", {"pass": True, "table": [{}]}, "KeyError 'trunc_bound'"),
    ("bound_report.json", {"pass": True, "table": [5]}, "TypeError "),
    ("bound_report.json", {"table": [{"trunc_bound": 1.0}, {"trunc_bound": "2"}]},
     "TypeError "),
    ("spectrum.json", {"pass": True, "growth_fit": {"fit": 1.0}}, "KeyError 'xi_hat'"),
    ("bound_report.json", {"pass": True, "table": [{"trunc_bound": "x"}], "failures": 7},
     "TypeError failures 7 is not a list of strings"),
    ("bound_report.json", {"pass": True, "table": [{"trunc_bound": "x"}]},
     "TypeError trunc_bound 'x' is not a number"),
    ("parity.json", {"pass": "yes", "failures": []}, "TypeError pass 'yes' is not a boolean"),
    ("traces_summary.json", {"pass": False, "failures": ["a", None]},
     "TypeError failures ['a', None] is not a list of strings"),
    ("spectrum.json", {"pass": True, "growth_fit": {"xi_hat": "2.5"}},
     "TypeError xi_hat '2.5' is not a number"),
    ("bound_report.json", {"pass": True, "G_emp": True}, "TypeError G_emp True is not a number"),
], ids=["row-without-trunc-bound", "row-not-an-object", "bounds-not-comparable",
        "fit-without-xi-hat", "failures-not-a-list", "bound-not-a-number", "pass-not-a-boolean",
        "failure-not-a-string", "xi-hat-not-a-number", "boolean-not-a-number"])
def test_exit_code_report_on_a_malformed_summary(tmp_path, name, payload, problem):
    # valid JSON objects that lack what the report reads from them, or hold it
    # as a value of another JSON type
    (tmp_path / name).write_text(json.dumps(payload))
    proc = run_cli(["report", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: {str(tmp_path / name)!r} is not a {name} summary: "
                                  f"{problem}")
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_exit_code_empty_band_census(tmp_path):
    # at coupling 100 float64 resolves no band at level 18 of the growth scan
    proc = run_cli(["spectrum", "--lambda", "100", "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["pass"] is False
    # levels 0..12 of the band table resolve fewer than F(k) bands; the
    # growth scan's levels are not reported, as the scan failed
    assert payload["failures"] == sorted(
        [f"census: level {k} resolves {n} of {f} bands"
         for k, n, f in [(2, 2, 3), (4, 7, 8), (5, 12, 13), (6, 19, 21), (7, 31, 34),
                         (8, 50, 55), (9, 81, 89), (10, 131, 144), (11, 198, 233),
                         (12, 218, 377)]]
        + ["growth: no band resolvable in float64 at level 18, coupling 100.0"])


def test_census_shortfall_fails_the_run(tmp_path):
    # the growth scan succeeds, but its cover reads level 15 with 130 of 1597 bands
    assert main(["spectrum", "--lambda", "100", "--growth", "6:14",
                 "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["growth_fit"] is not None
    assert "census: level 15 resolves 130 of 1597 bands" in payload["failures"]
    assert all(f.startswith("census: level ") for f in payload["failures"])


# the console script's entry point, "module:function", as pyproject.toml declares it
SCRIPT_ENTRY = re.search(r'^quasitrace = "(.+)"$',
                         (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(),
                         re.M).group(1)


@pytest.mark.parametrize("launcher", ["-m", "script"])
@pytest.mark.parametrize("bits", ["abc", "8", "96"])
def test_exit_code_bad_precision_bits(tmp_path, monkeypatch, launcher, bits):
    # phases are 128-bit whatever the environment holds: a value once refused
    # exits 0, and the random phases drawn from one seed, and the outputs,
    # are those of a run without the variable
    module, func = SCRIPT_ENTRY.split(":")
    # what the installed script runs: import the entry point and exit with its code
    prefix = (["-m", "quasitrace"] if launcher == "-m" else
              ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"])
    monkeypatch.delenv("QUASITRACE_PRECISION_BITS", raising=False)
    outputs = []
    for value in (None, bits):
        out = tmp_path / str(value)
        proc = run_python([*prefix, "words", "--k-max", "8", "--subword-max", "5",
                           "--random-thetas", "3", "--seed", "5", "--out", str(out)],
                          env=None if value is None else {"QUASITRACE_PRECISION_BITS": value})
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        outputs.append((out / "parity.json").read_bytes())
    assert outputs[0] == outputs[1]



def test_theta_list_labels_are_the_stripped_tokens(tmp_path):
    # "0, 1/3" parses to the phases of "0,1/3", and labels them the same
    outputs = []
    for theta_list in ("0, 1/3", "0,1/3"):
        out = tmp_path / str(len(outputs))
        assert main(["words", "--k-max", "8", "--subword-max", "20",
                     "--theta-list", theta_list, "--out", str(out)]) == 0
        outputs.append({name: (out / name).read_bytes() for name in ("words.csv", "parity.json")})
    assert b'" 1/3"' not in outputs[0]["parity.json"]
    assert outputs[0] == outputs[1]

# run in a fresh interpreter: importing the command line loads every layer
# (the benchmark's tracer reads them from sys.modules), and where numpy's
# bundled OpenBLAS exports the solver's LAPACK routines no subcommand loads
# SciPy, `dynamics` included
SCIPY_UNUSED = """
import sys

import quasitrace.cli as cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


out = sys.argv[1]
layers = ["phase", "xfloat", "words", "transfer", "spectrum", "lapack", "dynamics"]
assert [n for n in layers if f"quasitrace.{n}" not in sys.modules] == []
assert scipy_modules() == [], scipy_modules()[:5]
for args in (["words", "--k-max", "5", "--subword-max", "10"],
             ["traces", "--k-max", "5", "--energies=-3:13:4"],
             ["spectrum", "--k-max", "6", "--growth", "2:6"],
             ["dynamics", "--p", "0.3", "--N", "50", "--T-grid", "10"],
             ["report"]):
    assert cli.main([*args, "--out", out]) == 0, args
    assert scipy_modules() == [], (args, scipy_modules()[:5])
"""


def test_no_subcommand_imports_scipy(tmp_path):
    if LA._lapack().source != "numpy":
        pytest.skip("numpy has no bundled OpenBLAS with the solver's LAPACK routines")
    proc = run_python(["-c", SCIPY_UNUSED, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert "dynamics: ok" in proc.stdout


# run in a fresh interpreter: importing numpy.ma takes about 14 ms, and no
# subcommand that runs without SciPy needs it (SciPy's own import loads it)
NUMPY_MA_UNUSED = """
import sys

import quasitrace.cli as cli

out = sys.argv[1]
for args in (["words", "--k-max", "5", "--subword-max", "10"],
             ["traces", "--k-max", "5", "--energies=-3:13:4"],
             ["spectrum", "--k-max", "6", "--growth", "2:6"],
             ["dynamics", "--p", "0.3", "--N", "50", "--T-grid", "10"],
             ["report"]):
    assert cli.main([*args, "--out", out]) == 0, args
    assert "numpy.ma" not in sys.modules, args
"""


def test_numpy_ma_is_not_imported_without_scipy(tmp_path):
    if LA._lapack().source != "numpy":
        pytest.skip("the solver's LAPACK routines come from SciPy, which loads numpy.ma")
    proc = run_python(["-c", NUMPY_MA_UNUSED, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert "report:" in proc.stdout


def test_exit_code_success(tmp_path):
    proc = run_cli(["words", "--k-max", "3", "--subword-max", "5",
                    "--out", str(tmp_path)])
    assert proc.returncode == 0
    assert "words: ok" in proc.stdout


def test_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["words", "--k-max", "8", "--subword-max", "20",
            "--random-thetas", "5", "--seed", "99"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("words.csv", "parity.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_jobs_flag_does_not_change_output(tmp_path):
    runs = [
        (["words", "--k-max", "8", "--subword-max", "10"], ("parity.json",)),
        # --jobs is validated but runs no pool: every suite runs in one process
        (["traces", "--k-max", "9", "--energies=-3:13:12"],
         ("traces.csv", "margins.csv", "norms.csv", "traces_summary.json")),
    ]
    for args, names in runs:
        out_a = tmp_path / args[0] / "serial"
        out_b = tmp_path / args[0] / "parallel"
        args = args + ["--random-thetas", "6", "--seed", "7"]
        assert main(args + ["--jobs", "1", "--out", str(out_a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(out_b)]) == 0
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# SHA-256 of the outputs of the traces-large benchmark workload, copied from
# bench/digests.json; they were taken with per-energy scalar sweeps.
TRACES_LARGE_SHA256 = {
    "traces.csv": "236dd2f35476bdffd43ae135f29232518f87939398c739f1ff2cc820beb35b6c",
    "margins.csv": "abf5a73a71a7174a6f9b69791699db172b304f1c62d75b569bb326308815b420",
    "norms.csv": "c43e12543d8605ee424c08b37a1fa8ab7105f694c75908b326c68ecd5bf971a0",
    "traces_summary.json":
        "438ebd32888bd3f4eb662926eac822ebc9249c87dadedf021281a99dcaef289e",
}


def test_traces_large_outputs_are_pinned(tmp_path):
    assert main(["traces", "--k-max", "20", "--energies=-3:13:96", "--theta", "omega/2",
                 "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_LARGE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of multi-phase traces runs, taken before the phases and the
# phase-zero reference shared one sweep: without phase 0 in the list (the
# reference is swept in lanes of its own) and with it (its traces are the
# reference)
TRACES_MULTI_PHASE_SHA256 = {
    ("1/3",): {
        "traces.csv": "0e693aff6fa887cc832772223fb18e52a547b27e289d58b80426a052af6b3501",
        "margins.csv": "7966d0e8e014808ebb97c3c6b89dad7457bddc29b487fad7725f45c9d380a31c",
        "norms.csv": "7575503bd670f450d84fa15d4c38a971b041e12b911990be7ac09c2b2d23a372",
        "traces_summary.json":
            "d53432991f04cf3e2359fbe0439d96aca6a3c9877bf3290d34099c0c50bca70f",
    },
    ("0", "1/3"): {
        "traces.csv": "5d5298897c3250ec63bfb52dcb798cefec9659bf609f0360a00dc01e0ff480a4",
        "margins.csv": "55904bf3ac8e18d0c87c45ee878987f4f1e5b4aa3765f0bb9b35b4a8a419dea7",
        "norms.csv": "7467d7f0cb298ae58f71a5c5a04db82fa745ec5a721e59faa5d7d458d217bf6f",
        "traces_summary.json":
            "5392c45ef9552d59ca92c74e6f51cda1b86932df8e59105331552256082115b2",
    },
}


@pytest.mark.parametrize("thetas", sorted(TRACES_MULTI_PHASE_SHA256))
def test_traces_multi_phase_outputs_are_pinned(tmp_path, thetas):
    args = [arg for theta in thetas for arg in ("--theta", theta)]
    assert main(["traces", "--k-max", "12", "--energies=-3:13:16", *args,
                 "--random-thetas", "3", "--seed", "5", "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_MULTI_PHASE_SHA256[thetas].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of the default traces outputs, the run of the paper-default
# workload, taken before the sweep stepped in preallocated buffers
TRACES_DEFAULT_SHA256 = {
    "traces.csv": "ed56a36cce79c4590a4e27b76768238cefbe0094c9dc335bd2963fa8dae6b0e1",
    "margins.csv": "257190169ea1a450d2fab4c5b7534a650f1ba3346b62beaef3acfbb8543addd0",
    "norms.csv": "e25bbb8e163ca4d71c52fabd6bb7026c8a7c3ac44ad7c10038bb48c9ee8df519",
    "traces_summary.json":
        "524f5da916f9de5f91950a5b01d7029fce6945023161813a5c3900181d916da1",
}


def test_traces_default_outputs_are_pinned(tmp_path):
    assert main(["traces", "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_DEFAULT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a traces run at coupling 1e300, taken while every derivative
# lane still carried an exponent of its own.  There a derivative outgrows its
# product by about lambda per level, so the derivative lanes leave their
# product's exponent and take the general add of the product rule.
TRACES_HUGE_COUPLING_SHA256 = {
    "traces.csv": "d27ae053c2b7394833ad14eaef64a32eb69c5f9a06a00d1c5dd5d6ea5b9e0077",
    "margins.csv": "3a69a9de053257ec700b303cc3eba1c062198a0a67ef4e7e9b4d6dd9de345bbf",
    "norms.csv": "b4fb365cd38d436fbc091351fa072fe23343618721d6745272a30771ad361926",
    "traces_summary.json":
        "bb0c545d7b5701ecfbdba4fa0b7b10ba9d3467d98f4b9b6f9597b1f1ad22576e",
}


def test_traces_huge_coupling_outputs_are_pinned(tmp_path):
    assert main(["traces", "--lambda", "1e300", "--k-max", "12", "--energies=-1:1:5",
                 "--theta", "1/3", "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_HUGE_COUPLING_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a traces run at coupling 1e300 and energies near 1e-250, where
# lambda * |E| lies below 2**256 but one more factor of lambda overflows: the
# run exited 1 with an OverflowError until each lane rescaled below
# 2**1022 / g, g its largest factor plus one.  Its 33 traces and derivatives
# were within 2.4e-12 relative of the phase-zero recursion at 200 digits.
TRACES_TINY_ENERGY_SHA256 = {
    "traces.csv": "71d40ec8b3285ec0191d6ceadfcee34c42f2261116ac7fa92e3368d4672d8e8e",
    "margins.csv": "5d5b1f102eac4cb2af63a5afcd03129e58addc34047ce296eef2e38760c0f7b7",
    "norms.csv": "3434db5e0d97078ce469ffd245439aff28b78ea5fcda3f367cfcffe32ddd2167",
    "traces_summary.json":
        "88f7eb65ab3c63b0cae7cb10a7813015926e0ee8d9fe901d392c524bcb85fffd",
}


def test_traces_huge_coupling_tiny_energy_outputs_are_pinned(tmp_path):
    assert main(["traces", "--lambda", "1e300", "--k-max", "10",
                 "--energies=1e-250:3e-250:3", "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_TINY_ENERGY_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a traces run over many blocks of sites of the sweep, the last one
# partial, with three phases whose right lanes carry derivatives and whose
# norm sums cross block edges; taken while every lane rescaled at every site
TRACES_MANY_BLOCKS_SHA256 = {
    "traces.csv": "3e7043ea6b9b9a2312f94aded447946c8c4816a8772253e7d2403058899fdd03",
    "margins.csv": "d1ccd3073144db074503b8a797a7310b983139f5a0f948c74822e0d5b3d07fff",
    "norms.csv": "f92e17edf4f5569dfcbdf5bafeb76d0576fbf05271a7d9676cd92c8248486253",
    "traces_summary.json":
        "dda5f86845405609b99aacf33821758325cf2664c5d6da486c2718051c2af7eb",
}


def test_traces_many_blocks_outputs_are_pinned(tmp_path):
    assert main(["traces", "--k-max", "16", "--energies=-3:13:24", "--theta", "omega/2",
                 "--random-thetas", "2", "--seed", "4", "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_MANY_BLOCKS_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a traces run at coupling 1e30 and energies near 1e-250, taken
# while every lane rescaled at every site: factors of about 2**100 give
# two-site blocks, and the entries of E near 1e-250 lie far below the largest
TRACES_COUPLING_1E30_SHA256 = {
    "traces.csv": "4e55ab2ab3d186f7cb59357b0e385957d68f519f57a7596371437f7d497b9c49",
    "margins.csv": "f1e621ab14991020aeee9938d97759a3a746b60a242ce2dc87ddc7db230efeed",
    "norms.csv": "69b480becc37f1bd92b4f97671e77c787608620f95f00a19dd10c7c3a1703609",
    "traces_summary.json":
        "77f1161f5acf68ae1962ca45359548f7e72ca9f5294bde377e129f2822f1ab4e",
}


def test_traces_coupling_1e30_tiny_energy_outputs_are_pinned(tmp_path):
    assert main(["traces", "--lambda", "1e30", "--k-max", "14",
                 "--energies=1e-250:3e-250:3", "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_COUPLING_1E30_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a traces run at coupling 0 with every energy inside (-1, 1), taken
# while sweeps without norm sums ended a block after at most 32 sites: here
# every factor is below 1 in size, and the blocks run to the 256-site cap
TRACES_COUPLING_ZERO_SHA256 = {
    "traces.csv": "f419b504df8593f1d0f961ef1064151ad7173cb7a0984afbc83473c6a135a516",
    "margins.csv": "aea0f1edf78b859e42da8146c2a83a959efb481ef2af278192eca7287b97a56e",
    "norms.csv": "1ec482a416a017b3015813e2b7f23741413cef5b7c7b493127a9e9a183c0128d",
    "traces_summary.json":
        "68e1ad65be4b7bc5eccd3aa6ac5a0da5332192a0b9b211ece7b873df8697e287",
}


def test_traces_coupling_zero_outputs_are_pinned(tmp_path):
    assert main(["traces", "--lambda", "0", "--energies=-0.9:0.9:7", "--k-max", "16",
                 "--out", str(tmp_path)]) == 0
    for name, digest in TRACES_COUPLING_ZERO_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of the default spectrum outputs, copied from the paper-default entry
# of bench/digests.json; they were taken with one trace_grid call per segment.
SPECTRUM_DEFAULT_SHA256 = {
    "bands.csv": "06c740f347b59d31767528e8abb0d85ea728b39f57dd0f02eae2fd89039fc23b",
    "growth.csv": "9f5136ae2a83d3fa15aa7caf1a6c42b5da2f3ecdf9c32a4fb4ffbea16714007e",
    "norm_growth.csv": "05228828cad098328e80c0565d14933194b6602d215285b8190e55b3abdbcd15",
    "spectrum.json": "7362b017da5d13d5e04bf3e4c20a1e1f9cb0452bc06b03c4aa8520f09668e1a2",
}


def test_spectrum_default_outputs_are_pinned(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    for name, digest in SPECTRUM_DEFAULT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of the default dynamics and words outputs.  The dynamics digests
# were taken with single-threaded BLAS (numpy's OpenBLAS build, 2-vCPU
# x86-64); the solver now runs its products on one thread whatever the
# environment sets, so they hold under any thread count, but the CPU
# kernels OpenBLAS and numpy pick can still move bits on another machine.
DEFAULT_SHA256 = {
    "dynamics": {
        "dynamics.csv": "0b3c819e5bbcdd88b92595b4a466f12d8af083c5c8d39f59232c64d9bb9b8864",
        "bound_report.json":
            "ba43b77be11098495643318d4c8f05df70e2756b7959e620ce995f9dbc34944d",
    },
    "words": {
        "words.csv": "9a7858dfb13e09cf37aad051939e67727a8c926c0702a494abc7ad4e2c10a9fc",
        "parity.json": "a601b758b4ee9dbcab13e18a98cdf951b8b2d326861e7c01bf717d6b8462955e",
    },
}


@pytest.mark.parametrize("command", sorted(DEFAULT_SHA256))
def test_default_outputs_are_pinned(tmp_path, command):
    # a fresh interpreter, so the BLAS reads its thread count at start-up
    proc = run_python(["-m", "quasitrace", command, "--out", str(tmp_path)],
                      env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    for name, digest in DEFAULT_SHA256[command].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a words run that drives the factor census to n = 300 and codes
# three random phases up to F(20), taken before `subwords` lost its prefix
# length and self-check and `rotation_block` its endpoint monitor
WORDS_LARGE_SHA256 = {
    "words.csv": "9a7858dfb13e09cf37aad051939e67727a8c926c0702a494abc7ad4e2c10a9fc",
    "parity.json": "1fbad8d632a3360aeadc83fc1aabae8157c77da4d9fd3806f4a1fb48defbcb30",
}


def test_words_large_outputs_are_pinned(tmp_path):
    assert main(["words", "--k-max", "20", "--random-thetas", "3", "--subword-max", "300",
                 "--out", str(tmp_path)]) == 0
    for name, digest in WORDS_LARGE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of a dynamics run with large merges: two 801-site boxes, whose
# last merges keep 793 and 788 poles in the secular equation (the default
# run's largest box, 305 sites, keeps at most 301).  Taken with
# single-threaded BLAS before dlaed4 was called through a bare function
# pointer, and with SciPy's LAPACK before numpy's bundled OpenBLAS took its
# place; like the default digests, they hold on one kind of CPU.
LARGE_MERGE_SHA256 = {
    "dynamics.csv": "a4c0cc02383ee975c455e863d09a441190aaa1d7e57444df1b956c49dd6a8d5d",
    "bound_report.json": "6d1382b1ea998dbbcecd559f6beb6e8f51735b70e46285b6db64f9899d78b2cd",
}


def test_large_merge_dynamics_outputs_are_pinned(tmp_path):
    proc = run_python(["-m", "quasitrace", "dynamics", "--lambda", "6", "--p", "0.3",
                       "--N", "400", "--T-grid", "10,1000", "--theta-list", "0,1/3",
                       "--out", str(tmp_path)],
                      env={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    for name, digest in LARGE_MERGE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_dynamics_agrees_across_blas_thread_counts(tmp_path, monkeypatch):
    # the automatic box doubles from N = 28 to 448 per phase; the solver and
    # the Abel sweep run their products on one BLAS thread, so every byte
    # agrees whatever thread count the user set.  With two CPUs the first two
    # phases' first boxes are swept on the helper while the next phase's first
    # box is solved.
    args = ["-m", "quasitrace", "dynamics", "--lambda", "6", "--p", "0.3",
            "--T-grid", "10,3000", "--theta-list", "0,1/3,1/2"]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    outputs = {}
    for threads in ("1", "2", None):
        out = tmp_path / str(threads)
        proc = run_python([*args, "--out", str(out)],
                          env=None if threads is None else
                          {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("dynamics.csv", "bound_report.json")}
    report = json.loads(outputs["1"]["bound_report.json"])
    assert {theta: [n for n, _ in steps] for theta, steps in report["box_steps"].items()} == {
        theta: [28, 56, 112, 224, 448] for theta in ("0", "1/3", "1/2")}
    assert outputs["2"] == outputs["1"]
    assert outputs[None] == outputs["1"]
