"""Time one set-up of a workload in a fresh process, as a user's process pays it.

    python3 perfbench/coldsetup.py WORKLOAD INDIR     # prints seconds

INDIR holds the inputs perfbench/inputs.py wrote for that workload.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from specs import WORKLOADS  # noqa: E402
from workloads import time_setup  # noqa: E402

if __name__ == "__main__":
    print(time_setup(WORKLOADS[sys.argv[1]], sys.argv[2]))
