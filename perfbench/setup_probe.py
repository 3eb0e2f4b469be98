"""Set-up probe: import linkplan and load a workload's scenarios, then exit.

run.py times this process from spawn to exit for the `setup_s` metric.

    python3 perfbench/setup_probe.py <repo root> <scenario.yaml>...
"""
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    import linkplan.cli  # noqa: F401  (imports every module of the package)
    from linkplan.config import load_config

    for path in sys.argv[2:]:
        load_config(path).materialize()
