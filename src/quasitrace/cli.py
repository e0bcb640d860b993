"""Command-line front end: one subcommand per verification suite.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or configuration
error.  Identical configuration and seed produce byte-identical output files
(for `dynamics`, on the same BLAS library and kind of CPU); all tables are
CSV, structured reports are JSON, and nothing time-dependent is ever written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields
from pathlib import Path

from . import words as W
from . import transfer as TR
from . import spectrum as SP
from . import dynamics as DY
from .phase import PRECISION_BITS, PhasePoint, omega
from .xfloat import sci

__all__ = ["RunConfig", "ConfigError", "parse_theta", "main"]


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


# range messages, shared by the argument parsing and the checks of RunConfig
_ENERGY_RANGE = "energy grid must be lo:hi:count with lo < hi, count >= 1"
_T_RANGE = "timescales must be finite and positive"
_N_RANGE = f"N must be an integer in [1, {DY.MAX_BOX}] or 'auto'"
_P_RANGE = "p must be in (0, 1] or 'auto'"
_GROWTH_RANGE = f"growth range must satisfy 0 <= kmin < kmax <= {SP.MAX_GROWTH_LEVEL}"

_THETA_OMEGA = re.compile(r"^(?:(\d+)\*?)?omega(?:/(\d+))?$")
_THETA_FRACTION = re.compile(r"^(\d+)/(\d+)$")
_THETA_DECIMAL = re.compile(r"^\d*\.?\d+$")


def parse_theta(token: str) -> PhasePoint:
    """Parse a phase token: decimal, integer fraction, or rational omega multiple.

    Accepted forms: "0.25", "1/3", "omega", "omega/2", "3omega/4", "3*omega/4".
    Decimals and fractions are rounded to the nearest phase point.  A multiple
    n*omega/d is formed from the 128-bit `omega()`, itself the nearest point
    to omega, as floor(n * omega().raw / d): exact for d = 1, and otherwise
    within one unit of the last place below n*omega~/d.
    """
    text = token.strip().lower()
    m = _THETA_OMEGA.match(text)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ConfigError(f"zero denominator in phase {token!r}")
        raw = (omega().raw * num) // den
        return PhasePoint(raw % (1 << PRECISION_BITS))
    m = _THETA_FRACTION.match(text)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ConfigError(f"zero denominator in phase {token!r}")
        return PhasePoint.from_fraction(num, den)
    if _THETA_DECIMAL.match(text):
        return PhasePoint.from_decimal(text)
    raise ConfigError(f"cannot parse phase {token!r}")


def _grid_point(lo: float, hi: float, count: int, i: int) -> float:
    """Point i of the `traces` energy grid of `count` points from lo to hi."""
    return lo + (hi - lo) * i / max(count - 1, 1)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; round-trips through a JSON dictionary."""

    lam: float = 10.0
    thetas: tuple = ("0",)
    k_max: int = 14
    energies: tuple = (-3.0, 13.0, 64)
    T_grid: tuple = (10.0, 30.0, 100.0, 300.0, 1000.0)
    N: object = "auto"
    C1: float = 1.0
    p: object = "auto"
    out: str = "."
    seed: int = 20260810
    random_thetas: int = 0
    jobs: int = 1
    subword_max: int = 100
    growth: tuple = (6, 18)

    def __post_init__(self):
        if self.lam < 0 or not math.isfinite(self.lam):
            raise ConfigError("coupling must be finite and nonnegative")
        if not 0 <= self.k_max <= W.MAX_WORD_LEVEL:
            raise ConfigError(f"k-max must lie in [0, {W.MAX_WORD_LEVEL}]")
        lo, hi, count = self.energies
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and count >= 1):
            raise ConfigError(_ENERGY_RANGE)
        if not math.isfinite(hi - lo):
            raise ConfigError("energy grid span hi - lo must be finite")
        # the grid is monotone in i, so its two ends bound every point and every E - lambda
        ends = (_grid_point(lo, hi, count, 0), _grid_point(lo, hi, count, count - 1))
        if not all(math.isfinite(E) and math.isfinite(E - self.lam) for E in ends):
            raise ConfigError("energy grid points E and E - lambda must be finite")
        if not all(math.isfinite(t) and t > 0 for t in self.T_grid):
            raise ConfigError(_T_RANGE)
        seen: set = set()
        for t in self.T_grid:  # one record per phase and timescale
            if t in seen:
                raise ConfigError(f"T grid repeats the timescale {float(t)!r}")
            seen.add(t)
        if self.N != "auto" and (not isinstance(self.N, int) or not 1 <= self.N <= DY.MAX_BOX):
            raise ConfigError(_N_RANGE)
        if not (math.isfinite(self.C1) and self.C1 > 0):
            raise ConfigError("C1 must be finite and positive")
        if self.p != "auto" and not (0 < float(self.p) <= 1.0):
            raise ConfigError(_P_RANGE)
        if self.random_thetas < 0 or self.jobs < 1:
            raise ConfigError("counts must be nonnegative, jobs >= 1")
        if not 1 <= self.subword_max <= 2000:
            raise ConfigError("subword-max must lie in [1, 2000]")
        kmin, kmax = self.growth
        if not (0 <= kmin < kmax <= SP.MAX_GROWTH_LEVEL):
            raise ConfigError(_GROWTH_RANGE)
        try:
            SP.growth_levels(kmin, kmax)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        first: dict = {}  # phase -> index of the first token that names it
        for i, token in enumerate(self.thetas):
            j = first.setdefault(parse_theta(token), i)
            if j != i:
                raise ConfigError(f"phase tokens {self.thetas[j]!r} and {token!r} name one phase")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fixed = dict(data)
        for key in ("thetas", "T_grid", "energies", "growth"):
            if key in fixed and isinstance(fixed[key], list):
                fixed[key] = tuple(fixed[key])
        return cls(**fixed)

    def phase_points(self) -> list[tuple[str, PhasePoint]]:
        """Configured phases plus seeded random ones, with printable labels."""
        out = [(tok, parse_theta(tok)) for tok in self.thetas]
        if self.random_thetas:
            rng = random.Random(self.seed)
            for _ in range(self.random_thetas):
                point = PhasePoint(rng.getrandbits(PRECISION_BITS))
                out.append((point.to_decimal(24), point))
        return out


# ----------------------------------------------------------------------------
# deterministic file output
# ----------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, PhasePoint):
        return value.to_decimal(24)
    if isinstance(value, float):
        return float.__repr__(value)  # numpy's float64 repr is "np.float64(...)"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parity_failures(gate: str, phases, reports) -> list[str]:
    """A failure per phase and side of a parity gate where neither class passes."""
    return [f"{gate}: no parity class passes on the {report.side} side at theta={label}"
            for (label, _), pair in zip(phases, reports) for report in pair
            if not (report.even_ok or report.odd_ok)]


def _finish(name: str, path: Path, payload: dict, failures: list[str], ok: str) -> int:
    """Write a suite's JSON summary with its failures and pass flag, print the
    verdict and return the exit code."""
    _write_json(path, {**payload, "failures": sorted(failures), "pass": not failures})
    if failures:
        print(f"{name}: FAILED " + "; ".join(sorted(failures)))
        return 1
    print(f"{name}: ok ({ok})")
    return 0


# ----------------------------------------------------------------------------
# words subcommand
# ----------------------------------------------------------------------------

def cmd_words(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    k_table = min(cfg.k_max, 14)

    rows = []
    for k in range(k_table + 1):
        s = W.fib_word(k)
        b = W.special_word(k)
        _, distinct = W.cyclic_permutations(s)
        census = len(W.subwords(len(s)))
        identity = W.fibonacci_identity_check(k) if k >= 1 else 1
        rows.append((k, W.fib_number(k), W.height(s),
                     s[-2:], b[0], b[-1], identity, distinct, census))
        if k >= 1 and identity != 1:
            failures.append(f"fibonacci-identity k={k}")
        if distinct != W.fib_number(k):
            failures.append(f"distinct-rotations k={k}")
        if census != W.fib_number(k) + 1:
            failures.append(f"census-count k={k}")
    _write_csv(out / "words.csv",
               ["k", "fib", "height", "suffix", "b_first", "b_last",
                "identity", "distinct_rotations", "census"],
               rows)

    wrong = [n for n, count in enumerate(W.complexity_counts(cfg.subword_max), 1)
             if count != n + 1]
    failures.extend(f"complexity n={n}" for n in wrong)

    phases = cfg.phase_points()
    reports = [W.classify_phase_words(pt, cfg.k_max) for _, pt in phases]
    failures.extend(_parity_failures("phase-classification", phases, reports))
    classifications = []
    for (label, _), (right, left) in zip(phases, reports):
        classifications.append({
            "theta": label,
            "right": {"even_ok": right.even_ok, "odd_ok": right.odd_ok},
            "left": {"even_ok": left.even_ok, "odd_ok": left.odd_ok},
        })
    return _finish("words", out / "parity.json", {
        "k_max": cfg.k_max,
        "complexity_max_n": cfg.subword_max,
        "complexity_ok": not wrong,
        "classifications": classifications,
    }, failures, f"k_max={cfg.k_max}, {len(phases)} phases, complexity to n={cfg.subword_max}")


# ----------------------------------------------------------------------------
# traces subcommand
# ----------------------------------------------------------------------------

def _trace_rows(energies, lam: float, phases, tables):
    """Rows of traces.csv from the right tables' (m, e) arrays, written by `sci`."""
    lam = _fmt(lam)
    for (_, theta), (right, _) in zip(phases, tables):
        theta = _fmt(theta)
        for E, *row in zip(energies, *(a.tolist() for a in (*right.traces, *right.derivs))):
            E = _fmt(E)
            for k, (xm, xe, dm, de) in enumerate(zip(*row)):
                yield k, E, lam, theta, sci(xm, xe), sci(dm, de)


def cmd_traces(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    lo, hi, count = cfg.energies
    energies = [_grid_point(lo, hi, count, i) for i in range(count)]
    phases = cfg.phase_points()
    k_norm = min(cfg.k_max, 12)

    # one sweep for both sides of every phase and the phase-zero reference
    tables, refs = TR.phase_traces(cfg.k_max, energies, cfg.lam, [pt for _, pt in phases])
    _write_csv(out / "traces.csv", ["k", "E", "lambda", "theta", "x", "dx"],
               _trace_rows(energies, cfg.lam, phases, tables))

    reports = [TR.phase_trace_parity(traces, refs) for traces in tables]
    failures.extend(_parity_failures("trace-parity", phases, reports))
    parity_summary = [{
        "theta": label,
        "x": {"even_ok": right.even_ok, "odd_ok": right.odd_ok},
        "y": {"even_ok": left.even_ok, "odd_ok": left.odd_ok},
    } for (label, _), (right, left) in zip(phases, reports)]
    # the margins take their trace derivatives from the sweep above
    step = max(1, len(energies) // 16)
    margin_energies = energies[::step]
    margin_derivs = [tuple(a[::step, :k_norm + 1] for a in right.derivs) for right, _ in tables]
    del tables, refs  # memory peaks in the norm sums below

    # per phase one sweep gives the norm sums over windows +-F(0..k_norm): the
    # right ones at F(k) for the margins, both sides from F(4) on for norms.csv
    levels = [W.fib_number(k) for k in range(k_norm + 1)]
    margin_rows, norm_rows = [], []
    for (_, theta), derivs in zip(phases, margin_derivs):
        sums = TR.norm_profile(levels + [-l for l in levels], margin_energies, cfg.lam, theta)
        margins, failed = TR.norm_trace_margin(tuple(a[:, :len(levels)] for a in sums), derivs)
        rows = zip(margin_energies, failed.tolist(), *(a.tolist() for a in (*margins, *sums)))
        for E, bad, mm, me, sm, se in rows:
            for k, flag in enumerate(bad):
                if flag:
                    failures.append(
                        f"norm-derivative-margin: {TR.MarginViolationError.at(k, E, cfg.lam)}")
                else:
                    margin_rows.append((k, E, cfg.lam, theta, sci(mm[k], me[k])))
            norm_rows.extend((sign * l, E, cfg.lam, theta, sci(sm[j], se[j]))
                             for sign, start in ((1, 0), (-1, len(levels)))
                             for j, l in enumerate(levels[4:], start + 4))
    _write_csv(out / "margins.csv", ["k", "E", "lambda", "theta", "margin"], margin_rows)
    _write_csv(out / "norms.csv", ["L", "E", "lambda", "theta", "norm_sq"], norm_rows)

    return _finish("traces", out / "traces_summary.json", {
        "lambda": cfg.lam,
        "k_max": cfg.k_max,
        "energy_grid": list(cfg.energies),
        "parity": parity_summary,
    }, failures, f"lambda={cfg.lam}, {len(phases)} phases, {count} energies, k_max={cfg.k_max}")


# ----------------------------------------------------------------------------
# spectrum subcommand
# ----------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    band_rows = []
    counts = {}
    try:
        for k in range(cfg.k_max + 1):
            lo, hi = SP.bands(k, cfg.lam)
            counts[k] = len(lo)
            band_rows.extend((k, cfg.lam, i, a, b)
                             for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())))
    except SP.BandResolutionError as exc:
        failures.append(f"bands: {exc}")
    _write_csv(out / "bands.csv",
               ["k", "lambda", "band_index", "E_lo", "E_hi"], band_rows)

    growth_rows = []
    fit_payload = None
    resolved = max(counts, default=-1)  # bands(k) resolves every level up to k
    if cfg.lam > 4.0:
        try:
            fit = SP.derivative_growth_scan(cfg.lam, cfg.growth[0], cfg.growth[1])
            resolved = max(resolved, cfg.growth[1] + 1)  # the scan's cover reads level kmax + 1
            growth_rows = [(cfg.lam, k, m) for k, m in fit.min_derivs]
            fit_payload = {
                "xi_hat": fit.xi_hat,
                "zeta_hat": fit.zeta_hat,
                "residual": fit.residual,
                "k_range": list(fit.k_range),
            }
        except (SP.BandResolutionError, SP.DegenerateGrowthError) as exc:
            failures.append(f"growth: {exc}")
    _write_csv(out / "growth.csv", ["lambda", "k", "min_abs_dx"], growth_rows)
    failures.extend(f"census: level {level} resolves {found} of {total} bands"
                    for level, found, total in SP.census_shortfalls(resolved, cfg.lam))

    norm_rows = []
    c_fits = {}
    if fit_payload is not None:
        base_level = min(cfg.k_max, 12)
        lo, hi = SP.bands(base_level, cfg.lam)
        centers = (0.5 * (lo + hi)).tolist()
        sample = centers[:: max(1, len(centers) // 12)]
        l_grid = [W.fib_number(k) for k in range(4, min(cfg.growth[1], 18) + 1)]
        for label, theta in cfg.phase_points():
            rows, constants = SP.norm_growth_check(cfg.lam, theta, sample, l_grid,
                                                   fit_payload["zeta_hat"])
            norm_rows.extend(rows)
            c_fits[label] = {repr(e): c for e, c in constants.items()}
            if any(c <= 0 for c in c_fits[label].values()):
                failures.append(f"norm-growth constant nonpositive at theta={label}")
    _write_csv(out / "norm_growth.csv",
               ["theta", "E", "side", "L", "norm_sq", "bound"], norm_rows)

    ok = f"lambda={cfg.lam}, levels 0..{cfg.k_max}"
    if fit_payload:
        ok += f", xi_hat={fit_payload['xi_hat']:.2f}"
    return _finish("spectrum", out / "spectrum.json", {
        "lambda": cfg.lam,
        "band_counts": {str(k): v for k, v in counts.items()},
        "growth_fit": fit_payload,
        "norm_growth_constants": c_fits,
    }, failures, ok)


# ----------------------------------------------------------------------------
# dynamics subcommand
# ----------------------------------------------------------------------------

def cmd_dynamics(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    phases = cfg.phase_points()
    trend = None
    if cfg.p == "auto":
        if cfg.lam <= DY.TREND_COUPLING:
            raise ConfigError("automatic exponent calibration needs coupling > 8; pass --p")
        label = "1/2"
        row = DY.exponent_trend(cfg.lam, parse_theta(label), T_grid=cfg.T_grid)
        p_used = row.p_fit
        trend = {"theta": label, "p_fit": row.p_fit, "N_used": row.box_steps[-1][0],
                 "box_steps": row.box_steps}
    else:
        p_used = float(cfg.p)
    report = DY.dynamical_bound_check(
        cfg.lam, [pt for _, pt in phases], cfg.T_grid,
        C1=cfg.C1, p_used=p_used, N=cfg.N,
    )
    label_of = {pt: lab for lab, pt in phases}
    rows = []
    for rec in report.records:
        rows.append((cfg.lam, rec.theta, rec.T, rec.L, rec.mass,
                     rec.edge_mass, rec.trunc_bound, int(rec.valid)))
        if not rec.valid:
            failures.append(f"truncation theta={label_of[rec.theta]} T={rec.T:g}")
    _write_csv(out / "dynamics.csv",
               ["lambda", "theta", "T", "L", "mass", "edge_mass", "trunc_bound", "valid"],
               rows)
    if report.G_emp <= 0:
        failures.append("empirical-floor G_emp <= 0")
    return _finish("dynamics", out / "bound_report.json", {
        "lambda": cfg.lam,
        "C1": cfg.C1,
        "p_used": p_used,
        **({"trend": trend} if trend else {}),
        "G_emp": report.G_emp,
        "theta_list": [lab for lab, _ in phases],
        "T_grid": list(report.T_grid),
        "trunc_tol": DY.TRUNC_TOL,
        "N_used": {label_of[t]: n for t, n in report.N_used.items()},
        "box_steps": {label_of[t]: steps for t, steps in report.box_steps.items()},
        "solver": {label_of[t]: stats for t, stats in report.solver.items()},
        "table": [{**asdict(r), "theta": label_of[r.theta]} for r in report.records],
    }, failures, f"lambda={cfg.lam}, p_used={p_used}, G_emp={report.G_emp:.4f}")


# ----------------------------------------------------------------------------
# report subcommand
# ----------------------------------------------------------------------------

def _number(value, key: str):
    """A JSON number of a summary, not a boolean; TypeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} {value!r} is not a number")
    return value


def _suite_summary(name: str, data: dict) -> dict:
    """What `report` reads of a suite's summary, each value of its JSON type:
    a boolean `pass`, a list of strings `failures`, and numbers."""
    if not isinstance(data.get("pass"), bool):
        raise TypeError(f"pass {data.get('pass')!r} is not a boolean")
    failures = data.get("failures", [])
    if not isinstance(failures, list) or not all(isinstance(f, str) for f in failures):
        raise TypeError(f"failures {failures!r} is not a list of strings")
    summary = {"pass": data["pass"], "failures": failures}
    summary.update((key, _number(data[key], key)) for key in ("G_emp", "p_used") if key in data)
    if name == "spectrum.json" and data.get("growth_fit"):
        summary["xi_hat"] = _number(data["growth_fit"]["xi_hat"], "xi_hat")
    if name == "bound_report.json" and data.get("table"):
        summary["trunc_bound"] = max(_number(r["trunc_bound"], "trunc_bound")
                                     for r in data["table"])
    return summary


def cmd_report(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    if not out.is_dir():
        raise ConfigError(f"no output directory {str(out)!r}")
    summary: dict = {"out_dir": str(out)}
    for name in ("parity.json", "traces_summary.json", "spectrum.json",
                 "bound_report.json"):
        path = out / name
        if path.exists():
            try:
                data = json.loads(path.read_text())
            except ValueError as exc:
                raise ConfigError(f"{str(path)!r} is not valid JSON: {exc}") from None
            if not isinstance(data, dict):
                raise ConfigError(f"{str(path)!r} is not a JSON object")
            try:
                summary[name] = _suite_summary(name, data)
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"{str(path)!r} is not a {name} summary: "
                                  f"{type(exc).__name__} {exc}") from None
        else:
            summary[name] = {"pass": None, "missing": True}
    csv_counts = {}
    for path in sorted(out.glob("*.csv")):
        with open(path) as fh:
            csv_counts[path.name] = max(sum(1 for _ in fh) - 1, 0)  # less the header
    summary["csv_rows"] = csv_counts
    _write_json(out / "report.json", summary)
    present = [k for k, v in summary.items()
               if isinstance(v, dict) and v.get("pass") is not None]
    print(f"report: aggregated {len(present)} suite summaries into report.json")
    return 0


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=20260810,
                        help="seed for randomized phase sampling")
    parser.add_argument("--jobs", type=int, default=1,
                        help="must be >= 1; has no effect, every suite runs in one process "
                             "(dynamics may use one more thread, in and beside an eigensolve)")
    parser.add_argument("--theta", dest="thetas", action="append", default=None,
                        metavar="PHASE", help="phase token (repeatable)")
    parser.add_argument("--theta-list", default=None,
                        help="comma-separated phase tokens")
    parser.add_argument("--random-thetas", type=int, default=0,
                        help="additional seeded random phases")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasitrace",
        description="verification suites for the golden-rotation tight-binding model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_words = sub.add_parser("words", help="combinatorial suites")
    _add_common(p_words)
    p_words.add_argument("--k-max", type=int, default=14)
    p_words.add_argument("--subword-max", type=int, default=100)

    p_traces = sub.add_parser("traces", help="transfer-matrix trace suites")
    _add_common(p_traces)
    p_traces.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p_traces.add_argument("--k-max", type=int, default=14)
    p_traces.add_argument("--energies", default=None, metavar="LO:HI:COUNT")

    p_spec = sub.add_parser("spectrum", help="band and growth suites")
    _add_common(p_spec)
    p_spec.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p_spec.add_argument("--k-max", type=int, default=12)
    p_spec.add_argument("--growth", default="6:18", metavar="KMIN:KMAX")

    p_dyn = sub.add_parser("dynamics", help="Abel-averaged confinement suite")
    _add_common(p_dyn)
    p_dyn.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p_dyn.add_argument("--T-grid", default="10,30,100,300,1000")
    p_dyn.add_argument("--C1", type=float, default=1.0)
    p_dyn.add_argument("--p", default="auto")
    p_dyn.add_argument("--N", default="auto",
                       help="half-width, or 'auto' for the smallest certified box")

    p_rep = sub.add_parser("report", help="aggregate JSON summaries")
    p_rep.add_argument("--out", default=".")
    return parser


# RunConfig fields parsed from their argument strings; the other fields that
# a subcommand takes are copied as parsed by argparse
_PARSED = {"thetas", "energies", "growth", "T_grid", "p", "N"}


@contextmanager
def _numbers_or(message: str):
    """Turn a failed int() or float() of an argument into ConfigError(message)."""
    try:
        yield
    except ValueError:
        raise ConfigError(message) from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    updates = {f.name: given[f.name] for f in fields(RunConfig)
               if f.name in given and f.name not in _PARSED}
    # an empty value or token is parsed, and fails, like any other; a label
    # is the token as `parse_theta` reads it, without surrounding blanks
    theta_list = given.get("theta_list")
    tokens = [token.strip() for token in (given.get("thetas") or [])
              + ([] if theta_list is None else theta_list.split(","))]
    if tokens:
        updates["thetas"] = tuple(tokens)
    if given.get("energies") is not None:
        parts = args.energies.split(":")
        if len(parts) != 3:
            raise ConfigError("energy grid must be LO:HI:COUNT")
        with _numbers_or(_ENERGY_RANGE):
            updates["energies"] = (float(parts[0]), float(parts[1]), int(parts[2]))
    if given.get("growth") is not None:
        parts = args.growth.split(":")
        if len(parts) != 2:
            raise ConfigError("growth range must be KMIN:KMAX")
        with _numbers_or(_GROWTH_RANGE):
            updates["growth"] = (int(parts[0]), int(parts[1]))
    if given.get("T_grid") is not None:
        with _numbers_or(_T_RANGE):
            updates["T_grid"] = tuple(float(t) for t in args.T_grid.split(","))
    if given.get("p") is not None:
        with _numbers_or(_P_RANGE):
            updates["p"] = args.p if args.p == "auto" else float(args.p)
    if given.get("N") is not None:
        with _numbers_or(_N_RANGE):
            updates["N"] = args.N if args.N == "auto" else int(args.N)
    return RunConfig(**updates)


_COMMANDS = {"words": cmd_words, "traces": cmd_traces, "spectrum": cmd_spectrum,
            "dynamics": cmd_dynamics, "report": cmd_report}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_config_from_args(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
