"""Run one chaosbits CLI command and time its main() call.

Usage: python3 perfbench/cli_child.py RESULT_JSON ARG...

Imports ``chaosbits.cli`` and calls ``main(ARG...)`` exactly as the installed
``chaosbits`` script does, then writes the main() time, the exit code and the
imported package's location to RESULT_JSON and exits with main's code.
"""

import json
import sys
import time

import chaosbits
from chaosbits.cli import main

result_path, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
code = main(argv)
main_s = time.perf_counter() - t0
with open(result_path, "w", encoding="ascii") as fh:
    json.dump({"main_s": main_s, "exit": code, "package": chaosbits.__file__}, fh)
sys.exit(code)
