"""Set-up probe: import the program and build one workload's inputs.

Usage: python3 perfbench/probe.py <workload> <seed>. The benchmark times
whole runs of this script, interpreter start included, as set-up time.
"""

import sys

import inputs

if __name__ == "__main__":
    inputs.add_src_path()
    import refdoc.cli  # noqa: F401  (the import a `refdoc` command pays)
    inputs.BUILDERS[sys.argv[1]](int(sys.argv[2]))
