#!/usr/bin/env python3
"""Benchmark for quasitrace: each workload is a series of CLI subcommands.

    python3 bench/run.py --workload paper-default --seed 1 --seconds 20 --trace 0

Every subcommand runs in a fresh interpreter (``bench/child.py``), as a user
runs it, single-process (``--jobs 1``) and with the benchmark's seed.  A run
repeats the whole workload (a pass) until ``--seconds`` have gone by.

Every pass is checked: a subcommand run fails if it exits nonzero, if an
output file is missing, if a summary JSON does not say ``"pass": true``, or if
an output file differs from the previous pass.  Failed and attempted runs are
the ``failed`` and ``attempted`` fields of the result.

Every subcommand and import runs a calibration loop of matching work
alongside (``bench/calibration.py``), and its times are scaled to the loop's
reference speed.  With ``--trace 0`` the result holds the end-to-end metrics, measured
without tracing.  With ``--trace 1`` each pass is followed by a traced pass,
and the result holds the per-layer metrics; see ``bench/README.md``.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from spans import TRACED, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

# Why each workload is here is written down in bench/README.md.
WORKLOADS = {
    "paper-default": [["words"], ["traces"], ["spectrum"], ["dynamics"], ["report"]],
    "traces-large": [["traces", "--k-max", "20", "--energies=-3:13:96",
                      "--theta", "omega/2"]],
    "phase-sweep": [["dynamics", "--lambda", "6", "--p", "0.3", "--N", "1000",
                     "--T-grid", "10,100,1000,3000", "--random-thetas", "7"]],
}

# files each subcommand writes, and the one that carries its pass flag
OUTPUTS = {
    "words": ("words.csv", "parity.json"),
    "traces": ("traces.csv", "margins.csv", "norms.csv", "traces_summary.json"),
    "spectrum": ("bands.csv", "growth.csv", "norm_growth.csv", "spectrum.json"),
    "dynamics": ("dynamics.csv", "bound_report.json"),
    "report": ("report.json",),
}
SUMMARY = {"words": "parity.json", "traces": "traces_summary.json",
           "spectrum": "spectrum.json", "dynamics": "bound_report.json"}

# The calibration loop (bench/calibration.py) that matches each subcommand's
# work.  `dynamics` spends most of its time in the tridiagonal eigensolver,
# whose speed the Python loop does not track; the others, and the set-up
# imports, are almost all pure-Python work.  See bench/README.md.
CALIBRATION = {"words": "python", "traces": "python", "spectrum": "python",
               "dynamics": "lapack", "report": "python"}

END_TO_END = {"setup_s": "s", "total_s": "s", "main_s": "s", "peak_rss_mb": "MB"}
TIMED_SUBCOMMANDS = ("traces", "spectrum", "dynamics")
CALL_COUNTED = ("dynamics.eigensystem", "dynamics.abel_site_masses",
                "spectrum.trace_grid", "words.rotation_block")
WORK_COUNTS = {
    "dynamics.eigensystem.sites": "count",
    "dynamics.eigensystem.vector_bytes": "bytes",
    "dynamics.abel_site_masses.sites": "count",
    "dynamics.abel_site_masses.kernel_entries": "count",
    "spectrum.trace_grid.points": "count",
    "transfer.site_steps": "count",
    "words.rotation_block.symbols": "count",
}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **{f"{name}.self_s": "s" for name in TRACED},
    **WORK_COUNTS,
    "cli.output_bytes": "bytes",
    **{f"{sub}_s": "s" for sub in TIMED_SUBCOMMANDS},
    "trace_overhead_s": "s",
}

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ----------------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------------

def child_env() -> dict:
    """Environment pinned for every subcommand run."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(QUASITRACE_PRECISION_BITS="128", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, PYTHONHASHSEED="0")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str | None:
    # a benchmark checkout need not be a git repository; never look above ROOT
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(env: dict) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "precision_bits": int(env["QUASITRACE_PRECISION_BITS"]),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }


# ----------------------------------------------------------------------------
# running and checking subcommands
# ----------------------------------------------------------------------------

def run_child(cli_args: list[str], cwd: Path, env: dict, trace: bool,
              kind: str, deadline: float) -> dict:
    """One fresh interpreter; returns the child's record plus wall time and exit code.

    `calibration_s` in the record lists the child's samples of the `kind`
    calibration loop; the time they took is part of `wall_s`.  `scale` turns
    the child's times into reference time.
    """
    result = WORK / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), kind]
    if trace:
        cmd.append("--trace")
    if cli_args:
        cmd += ["--", *cli_args]
    start = time.perf_counter()
    with open(WORK / "child.log", "a") as log:
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=log, stderr=log,
                                  timeout=max(1.0, deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    wall = time.perf_counter() - start
    record = json.loads(result.read_text()) if result.is_file() else {}
    samples = record.setdefault("calibration_s", [])
    record.update(wall_s=wall, exit_code=code,
                  scale=calibration.scale(kind, samples) if samples else 1.0)
    return record


def check_subcommand(command: str, exit_code, out_dir: Path,
                     previous: dict | None) -> tuple[dict, list[str]]:
    """Digests of the subcommand's output files and the problems found.

    `previous` holds the digests from the previous pass of the same run, or
    None in the first pass.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"{command}: exit code {exit_code}")
    names = OUTPUTS[command]
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in names if (out_dir / name).is_file()}
    for name in names:
        if name not in digests:
            problems.append(f"{command}: {name} missing")
        elif previous is not None and previous.get(name) != digests[name]:
            problems.append(f"{command}: {name} differs from the previous pass")
    summary = SUMMARY.get(command)
    if summary in digests:
        data = _read_object(out_dir / summary)
        if data is None:
            problems.append(f"{command}: {summary} unreadable")
        elif data.get("pass") is not True:
            problems.append(f"{command}: {summary} does not say pass")
    if command == "report" and "report.json" in digests:
        data = _read_object(out_dir / "report.json")
        if data is None:
            problems.append("report: report.json unreadable")
        else:
            for suite, entry in data.items():
                if isinstance(entry, dict) and entry.get("pass") is False:
                    problems.append(f"report: {suite} says pass false")
    return digests, problems


def _read_object(path: Path) -> dict | None:
    """The JSON object in `path`, or None if it is not valid JSON or not an object."""
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def subcommand_args(step: list[str], seed: int) -> list[str]:
    if step[0] == "report":
        return [*step, "--out", "."]
    return [*step, "--jobs", "1", "--seed", str(seed), "--out", "."]


def run_pass(steps, seed: int, env: dict, trace: bool, previous: dict | None,
             deadline: float) -> dict:
    """Run every subcommand of a workload once, in a fresh output directory.

    `total_s` adds up each subcommand's time, calibration loop excluded, in
    reference time.
    """
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runs, digests, problems = [], {}, []
    total = 0.0
    for step in steps:
        start = time.perf_counter()
        record = run_child(subcommand_args(step, seed), out, env, trace,
                           CALIBRATION[step[0]], deadline)
        record["command"] = step[0]
        found, issues = check_subcommand(
            step[0], record["exit_code"], out,
            None if previous is None else previous.get(step[0], {}))
        step_s = time.perf_counter() - start - sum(record["calibration_s"])
        total += step_s * record["scale"]
        digests[step[0]] = found
        record["failed"] = bool(issues)
        problems += issues
        runs.append(record)
        if record["exit_code"] == "timeout":
            break
    output_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return {"total_s": total, "runs": runs, "digests": digests,
            "problems": problems, "output_bytes": output_bytes}


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def main_s(run: dict) -> float:
    """Time inside `cli.main` of one subcommand run, in reference time."""
    return run.get("main_s", 0.0) * run["scale"]


def end_to_end_metrics(passes, setup_samples) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "total_s": statistics.median(p["total_s"] for p in passes),
        "main_s": statistics.median(sum(main_s(r) for r in p["runs"]) for p in passes),
        "peak_rss_mb": statistics.median(
            max(r.get("maxrss_kb", 0) for r in p["runs"]) / 1024.0 for p in passes),
    }


def layer_metrics(traced_passes, plain_passes) -> dict:
    """Per-layer metrics: medians over traced passes, plus untraced subcommand times."""
    samples = {name: [] for name in PER_LAYER}
    for p in traced_passes:
        values = dict.fromkeys(PER_LAYER, 0)
        for run in p["runs"]:
            for name, entry in summarize(run.get("spans", [])).items():
                if f"{name}.calls" in values:
                    values[f"{name}.calls"] += entry["calls"]
                if f"{name}.self_s" in values:
                    values[f"{name}.self_s"] += entry["self_s"] * run["scale"]
            for name, count in run.get("counts", {}).items():
                values[name] += count
        values["cli.output_bytes"] = p["output_bytes"]
        for name in samples:
            samples[name].append(values[name])
    for sub in TIMED_SUBCOMMANDS:
        samples[f"{sub}_s"] = [sum(main_s(r) for r in p["runs"] if r["command"] == sub)
                               for p in plain_passes]
    samples["trace_overhead_s"] = [
        statistics.median(p["total_s"] for p in traced_passes)
        - statistics.median(p["total_s"] for p in plain_passes)
    ]
    return {name: statistics.median(values) for name, values in samples.items()}


def per_subcommand(passes) -> dict:
    """Median raw wall, main and import time, scale and peak RSS of each subcommand.

    `wall_s` includes the calibration loop's time; the scale is not applied.
    """
    table = {}
    for command in [r["command"] for r in passes[0]["runs"]]:
        rows = [r for p in passes for r in p["runs"] if r["command"] == command]
        table[command] = {
            "wall_s": statistics.median(r["wall_s"] for r in rows),
            "main_s": statistics.median(r.get("main_s", 0.0) for r in rows),
            "import_s": statistics.median(r.get("import_s", 0.0) for r in rows),
            "scale": statistics.median(r["scale"] for r in rows),
            "rss_mb": statistics.median(r.get("maxrss_kb", 0) / 1024.0 for r in rows),
        }
    return table


def digest_key(workload: str, seed: int) -> str:
    """Key of the recorded digests: the seed, if the workload's outputs depend on it."""
    seeded = any("--random-thetas" in step for step in WORKLOADS[workload])
    return str(seed) if seeded else "any"


def outputs_changed(workload: str, seed: int, digests: dict) -> tuple[int, int]:
    """Output files whose digest differs from the recorded one, and files with none."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    key = digest_key(workload, seed)
    reference = recorded.get(workload, {}).get(key, {})
    changed = unchecked = 0
    for command, files in digests.items():
        for name, digest in files.items():
            ref = reference.get(command, {}).get(name)
            if ref is None:
                unchecked += 1
            elif ref != digest:
                changed += 1
    return changed, unchecked


# ----------------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------------

def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "quasitrace" / "cli.py").is_file():
        raise BenchError(f"no quasitrace source tree under {ROOT / 'src'}")
    steps = WORKLOADS[workload]
    env = child_env()
    WORK.mkdir(exist_ok=True)
    (WORK / "child.log").write_text("")
    deadline = time.monotonic() + RUN_LIMIT_S

    setup_samples = []
    if not trace:
        run_child([], WORK, env, False, "python", deadline)  # warm the file cache and bytecode
        for _ in range(SETUP_PROBES):
            probe = run_child([], WORK, env, False, "python", deadline)
            if probe["exit_code"] != 0:
                raise BenchError("importing quasitrace.cli failed; see .bench_work/child.log")
            setup_samples.append(probe["import_s"] * probe["scale"])

    plain, traced, previous = [], [], None
    started = time.monotonic()
    while True:
        for traced_pass in ((False, True) if trace else (False,)):
            p = run_pass(steps, seed, env, traced_pass, previous, deadline)
            (traced if traced_pass else plain).append(p)
            previous = p["digests"]
        done = plain + traced
        if any(p["problems"] for p in done):
            break
        elapsed = time.monotonic() - started
        if elapsed >= seconds or time.monotonic() + elapsed / len(plain) > deadline:
            break

    attempted = sum(len(p["runs"]) for p in done)
    failed = sum(r["failed"] for p in done for r in p["runs"])
    problems = [issue for p in done for issue in p["problems"]]
    if trace:
        metrics = layer_metrics(traced, plain)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(plain, setup_samples)
        units = END_TO_END
    changed, unchecked = outputs_changed(workload, seed, done[-1]["digests"])
    diagnostics = {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": len(plain), "traced_passes": len(traced),
        "error_rate": failed / attempted,
        "outputs_changed": changed, "outputs_unchecked": unchecked,
        "problems": problems,
        "subcommands": per_subcommand(plain),
        "environment": environment(env),
    }
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return {"diagnostics": diagnostics, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, metric in outcome["result"]["metrics"].items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(outcome["diagnostics"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
