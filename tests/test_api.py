"""The public surface: each module's __all__ is the agreed set, and every
name in it exists.  A name added, removed or left stale in __all__ fails here
until this table is changed with it."""

import importlib

import pytest

PUBLIC = {
    "phase": {"PRECISION_BITS", "PhasePoint", "omega"},
    "words": {
        "ParityReport", "SaturationError", "PhaseClassificationError",
        "substitute", "fib_number", "fib_word", "rotation_block",
        "subwords", "saturation_prefix_length", "cyclic_permutations", "special_word",
        "height", "fibonacci_identity_check", "classify_phase_words",
        "hull_membership_check",
    },
    "xfloat": {"XReal"},
    "transfer": {
        "TraceParityError", "MarginViolationError",
        "traces_right_upto", "traces_left_upto", "dual_traces_upto", "norm_profile",
        "norm_trace_margin", "norm_trace_inequality", "phase_trace_parity", "phase_traces",
        "TraceTable",
    },
    "spectrum": {
        "Band", "GrowthFit", "NormGrowthRecord", "NormGrowthResult", "BandResolutionError",
        "DegenerateGrowthError", "trace_grid", "bands", "census_shortfalls", "spectrum_cover",
        "derivative_growth_scan", "norm_growth_check",
    },
    "dynamics": {
        "Truncation", "SiteSpectrum", "AbelRecord", "BoundReport", "TrendRow",
        "WindowError", "build_truncation", "eigensystem", "site_spectrum", "abel_site_masses",
        "dynamical_bound_check", "exponent_trend",
    },
    "cli": {"RunConfig", "ConfigError", "parse_theta", "main"},
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_all_is_the_agreed_surface_and_resolves(name):
    module = importlib.import_module(f"quasitrace.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
