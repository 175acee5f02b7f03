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

from . import analysis, battery, cipher, generator
from .analysis import *  # noqa: F403
from .battery import *  # noqa: F403
from .cipher import *  # noqa: F403
from .generator import *  # noqa: F403

__version__ = "0.1.0"

# The public API is each submodule's own __all__.
__all__ = ["__version__", *generator.__all__, *battery.__all__, *analysis.__all__, *cipher.__all__]
