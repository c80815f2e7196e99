"""Time the CLI presets in fresh processes on two source trees.

    python tools/time_presets.py PARENT_TREE CHANGE_TREE [--rounds N]

Each tree is a checkout of this repository.  Every command of COMMANDS runs
through compare_outputs.run: as ``python -m flickersim.cli`` in a fresh
process with that tree's ``src`` alone on PYTHONPATH (and no bytecode
written into the tree), in its own output directory under a temporary
directory.  Within a round each command runs on both trees back to back,
and the tree that goes first alternates from round to round.  Prints the
raw wall seconds and peak RSS of every run, then per command and tree the
median wall seconds and the largest peak RSS, and ends with one JSON line
holding every raw number.  Peak RSS is the ``ru_maxrss`` that ``wait4``
reports for that one child (the figure that ``RUSAGE_CHILDREN`` takes the
maximum of over all children).  Exits 1 if any command fails on either
tree.  One round takes about 35 s on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from compare_outputs import run

# (label, arguments): the five commands at their presets, simulate at
# horizons 4 and 60 times its preset's (their peak RSS shows whether
# simulate's memory grows with t_max), sweep and transform at 20 seeds (800
# rows, which split into process groups), and flicker at the replicate
# counts of the benchmark and of the roadmap's timings
COMMANDS = [
    ("simulate-fig4b", ["simulate", "--preset", "fig4b"]),
    ("simulate-fig4b-200k", ["simulate", "--preset", "fig4b", "--t-max", "200000"]),
    ("simulate-fig4b-3m", ["simulate", "--preset", "fig4b", "--t-max", "3000000"]),
    ("bifurcation-fig2", ["bifurcation", "--preset", "fig2"]),
    ("sweep-fig5", ["sweep", "--preset", "fig5"]),
    ("transform-fig6", ["transform", "--preset", "fig6"]),
    ("sweep-fig5-20", ["sweep", "--preset", "fig5", "--seeds", "20"]),
    ("transform-fig6-20", ["transform", "--preset", "fig6", "--seeds", "20"]),
    ("flicker-fig4b", ["flicker", "--preset", "fig4b"]),
    ("flicker-fig4b-8", ["flicker", "--preset", "fig4b", "--seeds", "8"]),
    ("flicker-fig4b-20", ["flicker", "--preset", "fig4b", "--seeds", "20"]),
]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    trees = {"parent": args.parent, "change": args.change}
    walls = {(label, side): [] for label, _ in COMMANDS for side in trees}
    rss = {key: [] for key in walls}
    failures = 0
    with tempfile.TemporaryDirectory(prefix="time-presets-") as work:
        for r in range(args.rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for label, command in COMMANDS:
                for side in order:
                    code, _, wall, peak = run(trees[side], command,
                                              Path(work) / f"{r}-{side}-{label}")
                    failures += code != 0
                    walls[label, side].append(wall)
                    rss[label, side].append(peak)
                    print(f"round {r} {label:<19} {side:<6} {wall:7.3f} s {peak:6.1f} MB"
                          f"{'' if code == 0 else f'  exit {code}'}", flush=True)
    print(f"\n{'command':<19} {'parent s':>9} {'change s':>9} {'ratio':>6} "
          f"{'parent MB':>9} {'change MB':>9}")
    for label, _ in COMMANDS:
        p, c = (statistics.median(walls[label, side]) for side in trees)
        print(f"{label:<19} {p:9.3f} {c:9.3f} {c / p:6.3f} "
              f"{max(rss[label, 'parent']):9.1f} {max(rss[label, 'change']):9.1f}")
    print(json.dumps({label: {side: {"wall_s": walls[label, side], "peak_rss_mb": rss[label, side]}
                              for side in trees} for label, _ in COMMANDS}))
    if failures:
        print(f"{failures} command(s) failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
