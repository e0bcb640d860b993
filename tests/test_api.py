"""The public surface: each module's __all__ is the agreed set, and every
name in it exists.  A name added, removed or left stale in __all__ fails here
until this table is changed with it.  Every name in an __all__ is used by the
program: code in `src/` or in the benchmark refers to it, so a name only the
tests call is not public.  Every function, class and method of `src/` is
live: code in `src/` refers to it, or `UNREFERENCED` gives the reason it
stays."""

import ast
import collections
import importlib
import os
import pathlib
import types

import pytest

PUBLIC = {
    "phase": {"PRECISION_BITS", "PhasePoint", "omega"},
    "words": {
        "ParityReport", "fib_number", "fib_word", "rotation_block", "subwords",
        "complexity_counts", "saturation_prefix_length", "cyclic_permutations", "special_word",
        "height", "fibonacci_identity_check", "classify_phase_words",
    },
    "xfloat": {"normalized", "add", "mul", "sqrt", "compare", "sci"},
    "transfer": {
        "MarginViolationError",
        "traces_right_upto", "traces_left_upto", "dual_traces_upto", "norm_profile",
        "norm_trace_margin", "norm_trace_inequality", "phase_trace_parity", "phase_traces",
        "TraceTable",
    },
    "spectrum": {
        "GrowthFit", "BandResolutionError", "DegenerateGrowthError", "MAX_GROWTH_LEVEL",
        "trace_grid", "bands", "census_shortfalls", "spectrum_cover", "growth_levels",
        "derivative_growth_scan", "norm_growth_check",
    },
    "dynamics": {
        "Truncation", "SiteSpectrum", "AbelRecord", "BoundReport", "TrendRow",
        "WindowError", "build_truncation", "eigensystem", "site_spectrum", "abel_site_masses",
        "dynamical_bound_check", "exponent_trend",
    },
    "lapack": {"dlaed4_roots", "dstevd", "dsterf", "halves", "one_blas_thread"},
    "cli": {"RunConfig", "ConfigError", "parse_theta", "main"},
}

# definitions no code in `src/` refers to, each with the reason it stays
BENCH_PINS = "the benchmark's spans trace it (`bench/spans.py`)"
UNREFERENCED = {
    "transfer.traces_right_upto": BENCH_PINS,
    "transfer.traces_left_upto": BENCH_PINS,
    "transfer.dual_traces_upto": BENCH_PINS + " and its tests call it",
    "transfer.norm_trace_inequality": BENCH_PINS,
    "dynamics.eigensystem": BENCH_PINS,
    "cli.RunConfig.to_dict": "kept for the run manifest (ROADMAP item 14)",
    "cli.RunConfig.from_dict": "kept for the run manifest (ROADMAP item 14)",
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_all_is_the_agreed_surface_and_resolves(name):
    module = importlib.import_module(f"quasitrace.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_dynamics_leaves_foreign_code_and_threads_to_lapack():
    # one owner per name: `dynamics` reaches ctypes, the helper thread and the
    # CPU count only through `lapack`, which is where tests patch them
    dynamics = importlib.import_module("quasitrace.dynamics")
    lapack = importlib.import_module("quasitrace.lapack")
    bound = list(vars(dynamics).values())
    modules = {v.__name__ for v in bound if isinstance(v, types.ModuleType)}
    assert modules & {"ctypes", "functools", "os", "threading", "types"} == set()
    cpu_counts = [os.cpu_count, lapack._cpus, getattr(os, "sched_getaffinity", None)]
    assert [v for v in bound if any(v is f for f in cpu_counts if f is not None)] == []
    assert "_cpus" not in vars(dynamics)


def _definitions(tree):
    """(qualified name, name code refers to it by, node) of every module-level
    function and class and every method; dunder methods run implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(node) -> collections.Counter:
    """Names read in code under `node`: bare names and attributes, not strings."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


SRC = pathlib.Path(importlib.import_module("quasitrace").__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _trees(directory):
    """Module name -> syntax tree of each program file in `directory`, its tests left out."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))
            if not path.stem.startswith("test_")}


def test_every_public_name_is_used_by_the_program():
    # the benchmark's span table names what it traces as "module.name" strings
    src = _trees(SRC)
    trees = [*src.values(), *_trees(BENCH).values()]
    used = sum((_references(tree) for tree in trees), collections.Counter())
    dotted = {n.value for tree in trees for n in ast.walk(tree)
              if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unused = []
    for module in sorted(PUBLIC):
        own = {qualified: node for qualified, _, node in _definitions(src[module])}
        for name in importlib.import_module(f"quasitrace.{module}").__all__:
            inside = _references(own[name])[name] if name in own else 0
            if used[name] == inside and f"{module}.{name}" not in dotted:
                unused.append(f"{module}.{name}")
    assert unused == []


def test_every_definition_in_src_is_referenced_or_listed():
    trees = _trees(SRC)
    used = sum((_references(tree) for tree in trees.values()), collections.Counter())
    unreferenced = {f"{module}.{qualified}" for module, tree in trees.items()
                    for qualified, name, node in _definitions(tree)
                    if used[name] == _references(node)[name]}  # only itself
    assert unreferenced == set(UNREFERENCED)
