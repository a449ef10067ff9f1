"""The set-up of one benchmark run, as a process of its own so that run.py
can time all of it: interpreter start, `import trisched` (through the
workload module, which imports the CLI) and writing the workload's inputs.

    python3 perfbench/prepare.py --workload oracle-pool --seed 1 --out DIR
"""

import argparse
import sys
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.prepare(workloads.SPECS[args.workload], args.seed, Path(args.out))


if __name__ == "__main__":
    main()
