"""Cold set-up probe: prints the seconds one fresh interpreter takes to
import the program and pay its one-off costs (``workloads.warm_up``).

``run.py`` runs it several times per run and reports the median as
``setup_s``; it is not meant to be run by hand.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from workloads import warm_up  # noqa: E402

warm_up()
print(time.perf_counter() - T0)
