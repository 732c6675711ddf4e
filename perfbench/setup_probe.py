"""Set-up of a fresh interpreter: import lyapunov_lab, build the parser, run one warm-up round.

run.py times this script end to end as setup_s. It exits 1 if any command
of the warm-up round fails.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N --out DIR
"""

import argparse
from pathlib import Path

import rounds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=rounds.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    cli = rounds.load_cli(Path(__file__).resolve().parent.parent)
    cli.build_parser()
    warm = rounds.run_round(cli, rounds.make_round(args.workload, args.seed, rounds.WARMUP), args.out, rounds.WARMUP)
    return 0 if all(o.rc == 0 for o in warm.outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
