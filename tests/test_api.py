"""The public surface: each module's __all__ is the agreed set, and every
name in it exists.  A name added, removed or left stale in __all__ fails here
until this table is changed with it."""

import importlib
import os
import types

import pytest

PUBLIC = {
    "phase": {"PRECISION_BITS", "PhasePoint", "omega"},
    "words": {
        "ParityReport", "SaturationError",
        "substitute", "fib_number", "fib_word", "rotation_block", "subwords",
        "complexity_counts", "saturation_prefix_length", "cyclic_permutations", "special_word",
        "height", "fibonacci_identity_check", "classify_phase_words",
        "hull_membership_check",
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
