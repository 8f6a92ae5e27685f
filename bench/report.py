"""Run every workload once and print its end-to-end metrics by name and unit.

    python3 bench/report.py --seed 1 --seconds 15

Each workload runs in its own process through bench/run.py, one after the
other, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"],
                              cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{w}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{w}  (failed {res['failed']} of {res['attempted']} ops)")
        for name, m in res["metrics"].items():
            print(f"  {name:<45} {m['value']:>12.6g} {m['unit']}")
        sys.stderr.write(proc.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
