"""Print the seconds a fresh interpreter takes to import the CLI and parse a host.

    PYTHONPATH=src python3 bench/setup_probe.py HOST_FILE

This is the set-up every `cyclefactors decompose` invocation pays before it
does any work.
"""

import sys
import time

started = time.perf_counter()
from cyclefactors.cli import load_hypergraph  # noqa: E402

load_hypergraph(sys.argv[1])
print(time.perf_counter() - started)
