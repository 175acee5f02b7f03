"""The package namespace: the public API as one pinned set of names."""

import chaosbits

PUBLIC_API = {
    "__version__",
    # generator
    "SCHEMES", "ChaoticBitGenerator", "DegenerateSeedError", "GeneratorConfig",
    "GeneratorState", "SeedSpec", "TranscriptDriver", "TranscriptExhausted",
    "bits_to_ascii", "chaotic_step", "config_from_entries", "config_from_text",
    "config_to_text", "generate_bits", "logistic_step", "m_from_y", "pack_bits",
    "parse_ascii_bits", "seed_from_time", "strategy_from_y", "transcript_from_text",
    # battery
    "P_T_THRESHOLD", "BatteryEntry", "BatteryReport", "TestResult",
    "approximate_entropy", "block_frequency", "cumulative_sums", "erfc",
    "frequency_monobit", "gammainc_upper", "longest_run", "p_uniformity",
    "report_to_csv", "report_to_text", "run_battery", "runs_test", "serial",
    "spectral_dft",
    # analysis
    "BudgetExceeded", "CorrelationSeries", "CycleReport", "PowerSpectrum",
    "autocorrelation", "cross_correlation", "detect_cycle", "ideal_period",
    "phase_distance", "phase_distance_tail_bound", "power_spectrum",
    # cipher
    "CHI2_1PCT_255DF", "GrayscaleImage", "Histogram", "chi_square_uniformity",
    "histogram", "keystream_bytes", "read_pgm", "write_pgm", "xor_cipher",
}


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 60
    assert len(chaosbits.__all__) == 60
    assert set(chaosbits.__all__) == PUBLIC_API


def test_star_import_gives_the_public_api():
    namespace = {}
    exec("from chaosbits import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_API
    for name in PUBLIC_API - {"__version__"}:
        assert namespace[name] is getattr(chaosbits, name)
