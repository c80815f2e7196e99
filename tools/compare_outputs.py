"""Run a fixed command matrix on two source trees and compare what they write.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  Every command of MATRIX runs
as ``python -m flickersim.cli`` in a fresh process with that tree's ``src``
alone on PYTHONPATH (and no bytecode written into the tree), one output
directory per command and tree under a temporary directory.  Data files are
compared byte for byte; manifests as JSON, leaving out ``created_utc`` and
the directories of the output paths.  Exit codes and stderr must match
too, each warning compared by its category and message, not by the file and
line that raised it.  Prints one line per file and exits 1 on any difference, else 0.
The full matrix takes about 15 s per tree on a 2-CPU host.  run also
returns each command's wall seconds and peak RSS, which
tools/time_presets.py reports.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

# config files that MATRIX names after --config, written into the temporary
# directory and read by both trees
CONFIGS = {
    # a grid whose every row starts from the base's x0 and y0
    "start.yaml": "sim:\n  x0: 2.0\n  y0: 1.0\n",
    # x overflows to nan at step 1
    "overflow.yaml": "sim:\n  x0: 1.0e+200\n  t_max: 600\n  burn_in: 100\n",
}

# (label, arguments after the command): the preset figures, the grids at both
# worker counts, small runs off the presets, and runs from CONFIGS
MATRIX = [
    ("bifurcation-fig2", ["bifurcation", "--preset", "fig2"]),
    ("bifurcation-0-1", ["bifurcation", "--c-min", "0", "--c-max", "1"]),
    # 10x fig2's rates, across both folds
    ("bifurcation-dense", ["bifurcation", "--c-min", "0", "--c-max", "6", "--steps", "4001"]),
    *((f"simulate-{fig}", ["simulate", "--preset", fig])
      for fig in ("fig4a", "fig4b", "fig4c", "fig4d")),
    ("flicker-fig4b-8", ["flicker", "--preset", "fig4b", "--seeds", "8"]),
    *((f"sweep-fig5-w{w}", ["sweep", "--preset", "fig5", "--workers", str(w)]) for w in (1, 2)),
    ("sweep-small", ["sweep", "--c-min=-1", "--c-max", "2", "--steps", "7", "--seeds", "3"]),
    ("transform-fig6", ["transform", "--preset", "fig6"]),
    # 4 c x 3 seeds: 12 rows on the scalar kernel, whose burn-in ends inside
    # a block of several spans, so x_digest is compared across block edges
    ("transform-few-rows", ["transform", "--c-min", "1.5", "--c-max", "2.5", "--steps", "4",
                            "--seeds", "3", "--t-max", "5000", "--burn-in", "500"]),
    ("sweep-start", ["sweep", "--config", "start.yaml"]),
    # simulate exits 1 naming the step; the sweep writes NaN rows that carry errors
    ("simulate-overflow", ["simulate", "--config", "overflow.yaml"]),
    ("sweep-overflow", ["sweep", "--config", "overflow.yaml"]),
]


class Run(NamedTuple):
    code: int
    stderr: str
    wall_s: float
    peak_rss_mb: float  # wait4's ru_maxrss for this one child


def run(tree: Path, argv: list[str], out: Path) -> Run:
    """One command on tree in a fresh process, writing into out."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out.mkdir(parents=True)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "flickersim.cli", *argv,
                           "--out-dir", str(out)],
                          cwd=out, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        stderr = proc.stderr.read()  # to EOF, so the child never blocks on a full pipe
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Run(proc.returncode, stderr, wall, usage.ru_maxrss / 1024)  # KiB on Linux


# a warning as Python prints it: file:line: Category: message, then the source line
_WARNING = re.compile(r"^\S+:\d+: (\w+Warning: .*)\n(?:  .*\n)?", re.MULTILINE)


def _stderr(text: str) -> str:
    """text with each warning reduced to its category and message."""
    return _WARNING.sub(r"\1\n", text)


def _manifest(path: Path) -> dict:
    """A manifest without its timestamp, its outputs reduced to file names."""
    doc = json.loads(path.read_text())
    del doc["created_utc"]
    doc["outputs"] = [Path(p).name for p in doc["outputs"]]
    return doc


def compare(a: Path, b: Path) -> list[tuple[str, bool]]:
    """(file name, identical) for every file either directory holds."""
    result = []
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            same = False
        elif name == "manifest.json":
            same = _manifest(pa) == _manifest(pb)
        else:
            same = filecmp.cmp(pa, pb, shallow=False)
        result.append((name, same))
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent, change = map(Path, argv)
    differences = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        for name, text in CONFIGS.items():
            (Path(work) / name).write_text(text)
        for label, command in MATRIX:
            command = [str(Path(work) / arg) if arg in CONFIGS else arg for arg in command]
            dirs = [Path(work) / side / label for side in ("parent", "change")]
            runs = [(r.code, _stderr(r.stderr))
                    for r in (run(tree, command, out) for tree, out in zip((parent, change), dirs))]
            if runs[0] != runs[1]:
                differences += 1
                print(f"DIFFERENT {label}: exit/stderr {runs[0]!r} vs {runs[1]!r}")
                continue
            for name, same in compare(*dirs):
                differences += not same
                print(f"{'identical' if same else 'DIFFERENT'} {label}/{name}")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
