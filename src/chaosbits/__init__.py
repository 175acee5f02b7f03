"""Chaotic-iterations pseudo-random bit generation and analysis.

The package has five parts:

- :mod:`chaosbits.generator`: the bit generator itself (Boolean cell
  vector driven by a logistic map, one cell negated per step, blocks
  emitted at chaotic intervals) plus seeding, serialization and forced
  transcripts.
- :mod:`chaosbits.battery`: a statistical test battery (frequency,
  runs, spectral, cumulative sums, serial, approximate entropy) with
  cross-sequence p-value uniformity aggregation.
- :mod:`chaosbits.analysis`: autocorrelation, cross-correlation, power
  spectrum, exact cycle detection on the state orbit and a phase-space
  distance.
- :mod:`chaosbits.cipher`: a one-time-pad cipher for 8-bit grayscale
  images with PGM I/O and histogram uniformity reporting.
- :mod:`chaosbits.cli`: the ``chaosbits`` command-line tool.
"""

from .analysis import (
    BudgetExceeded,
    CorrelationSeries,
    CycleReport,
    PowerSpectrum,
    autocorrelation,
    cross_correlation,
    detect_cycle,
    ideal_period,
    phase_distance,
    phase_distance_tail_bound,
    power_spectrum,
)
from .battery import (
    P_T_THRESHOLD,
    BatteryEntry,
    BatteryReport,
    TestResult,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    erfc,
    frequency_monobit,
    gammainc_upper,
    longest_run,
    p_uniformity,
    report_to_csv,
    report_to_text,
    run_battery,
    runs_test,
    serial,
    spectral_dft,
)
from .cipher import (
    CHI2_1PCT_255DF,
    GrayscaleImage,
    Histogram,
    chi_square_uniformity,
    histogram,
    keystream_bytes,
    read_pgm,
    write_pgm,
    xor_cipher,
)
from .generator import (
    SCHEMES,
    ChaoticBitGenerator,
    DegenerateSeedError,
    GeneratorConfig,
    GeneratorState,
    SeedSpec,
    TranscriptDriver,
    TranscriptExhausted,
    bits_to_ascii,
    chaotic_step,
    config_from_entries,
    config_from_text,
    config_to_text,
    generate_bits,
    logistic_step,
    m_from_y,
    pack_bits,
    parse_ascii_bits,
    seed_from_time,
    strategy_from_y,
    transcript_from_text,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # generator
    "SCHEMES",
    "ChaoticBitGenerator",
    "DegenerateSeedError",
    "GeneratorConfig",
    "GeneratorState",
    "SeedSpec",
    "TranscriptDriver",
    "TranscriptExhausted",
    "bits_to_ascii",
    "chaotic_step",
    "config_from_entries",
    "config_from_text",
    "config_to_text",
    "generate_bits",
    "logistic_step",
    "m_from_y",
    "pack_bits",
    "parse_ascii_bits",
    "seed_from_time",
    "strategy_from_y",
    "transcript_from_text",
    # battery
    "P_T_THRESHOLD",
    "BatteryEntry",
    "BatteryReport",
    "TestResult",
    "approximate_entropy",
    "block_frequency",
    "cumulative_sums",
    "erfc",
    "frequency_monobit",
    "gammainc_upper",
    "longest_run",
    "p_uniformity",
    "report_to_csv",
    "report_to_text",
    "run_battery",
    "runs_test",
    "serial",
    "spectral_dft",
    # analysis
    "BudgetExceeded",
    "CorrelationSeries",
    "CycleReport",
    "PowerSpectrum",
    "autocorrelation",
    "cross_correlation",
    "detect_cycle",
    "ideal_period",
    "phase_distance",
    "phase_distance_tail_bound",
    "power_spectrum",
    # cipher
    "CHI2_1PCT_255DF",
    "GrayscaleImage",
    "Histogram",
    "chi_square_uniformity",
    "histogram",
    "keystream_bytes",
    "read_pgm",
    "write_pgm",
    "xor_cipher",
]
