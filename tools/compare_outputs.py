"""Run a fixed command matrix on two source trees and compare what they write.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE
    python tools/compare_outputs.py --write-golden [TREE]

Each tree is a checkout of this repository.  Every command of MATRIX runs
as ``python -m flickersim.cli`` in a fresh process with that tree's ``src``
alone on PYTHONPATH (and no bytecode written into the tree), one output
directory per command and tree under a temporary directory.  Data files are
compared byte for byte; manifests as JSON, leaving out ``created_utc`` and
the directories of the output paths.  Exit codes and stderr must match
too, each warning compared by its category and message, not by the file and
line that raised it; the files are compared whether or not they do.  Prints
one line per file and exits 1 on any difference, else 0.  Under a differing
CSV file with the same header, it prints each differing column with its
count of differing rows and the largest relative difference of its numbers;
under a differing JSON file, each differing key.
The full matrix takes about 20 s per tree on a 2-CPU host.  run also
returns each command's wall seconds and peak RSS, which
tools/time_presets.py reports.

--write-golden regenerates TREE's tests/golden.json (TREE defaults to the
checkout holding this tool).  Each command the file lists runs twice in
fresh processes: at numpy's default CPU dispatch, and with the targets
above X86_V3 switched off by NPY_DISABLE_CPU_FEATURES.  A command whose
data files have the same sha256 both times gets one set under "any", any
other one set per dispatch, keyed as each run's manifest names it.  It
exits 1, leaving the file as it was, if a command fails or if both runs
report one dispatch, as on a host without the targets above X86_V3.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
import math
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
    # x grows ~100-fold a step to 1.7e154, where (x - y)^2 overflows: cells
    # outside trajectory.csv's Ryu band
    "huge.yaml": ("eco: {r: 100, K: 1.0e+153, c: 0, h: 1.0}\nnoise: {beta: 0}\n"
                  "adapt: {l: 0}\nsim: {x0: 1, t_max: 78, burn_in: 0}\n"),
    # x grows ~9 % a step and overflows at step 8179, after the first pieces
    # of trajectory.csv are written
    "late.yaml": ("eco: {r: 0.001, K: 1.0e+308, c: 0, h: 1.0}\nnoise: {beta: 0, mu: 0.003}\n"
                  "sim: {x0: 1, t_max: 20000, burn_in: 0}\n"),
    # a whole number beyond the float range: exits 1 naming sim.x0
    "bigint.yaml": f"sim: {{x0: 1{'0' * 400}}}\n",
    # h^4 underflows to 0: every scan rate fails with ZeroDivisionError at x = 0
    "tiny-h.yaml": "eco: {h: 1.0e-90}\n",
    # the cubic's (q/2)^2 overflows: every scan rate fails with OverflowError
    "huge-K.yaml": "eco: {K: 1.0e+52}\n",
    # r * x overflows at the root x = K, whose residual is nan: every scan rate fails
    "huge-r.yaml": ("eco: {r: 2.4472365336093953e+296, K: 7.749614461304867e+21, "
                    "h: 4.076005691482615}\n"),
}

# (label, arguments after the command): the preset figures, the grids at 20
# seeds, small runs off the presets, and runs from CONFIGS
MATRIX = [
    ("bifurcation-fig2", ["bifurcation", "--preset", "fig2"]),
    ("bifurcation-0-1", ["bifurcation", "--c-min", "0", "--c-max", "1"]),
    # 10x fig2's rates, across both folds
    ("bifurcation-dense", ["bifurcation", "--c-min", "0", "--c-max", "6", "--steps", "4001"]),
    *((f"simulate-{fig}", ["simulate", "--preset", fig])
      for fig in ("fig4a", "fig4b", "fig4c", "fig4d")),
    # 200 and 1 000 blocks of trajectory.csv
    ("simulate-fig4b-200k", ["simulate", "--preset", "fig4b", "--t-max", "200000"]),
    ("simulate-fig4b-1m", ["simulate", "--preset", "fig4b", "--t-max", "1000000"]),
    ("flicker-fig4b-8", ["flicker", "--preset", "fig4b", "--seeds", "8"]),
    ("sweep-fig5", ["sweep", "--preset", "fig5"]),
    # 800 rows: two process groups on a host with two usable CPUs, so a tree
    # that runs them as one group checks that the grouping moves no byte
    ("sweep-fig5-20", ["sweep", "--preset", "fig5", "--seeds", "20", "--t-max", "6000"]),
    ("transform-fig6-20", ["transform", "--preset", "fig6", "--seeds", "20", "--t-max", "6000"]),
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
    ("simulate-huge", ["simulate", "--config", "huge.yaml"]),
    ("simulate-overflow-late", ["simulate", "--config", "late.yaml"]),
    ("simulate-bigint", ["simulate", "--config", "bigint.yaml"]),
    # every row of the scan is an error, recorded in the manifest's scan_errors
    ("bifurcation-tiny-h", ["bifurcation", "--config", "tiny-h.yaml"]),
    ("bifurcation-huge-K", ["bifurcation", "--config", "huge-K.yaml"]),
    ("bifurcation-huge-r", ["bifurcation", "--config", "huge-r.yaml", "--c-min", "1.3",
                            "--c-max", "1.4", "--steps", "2"]),
    # exit 1 naming the fault, before any file is written
    ("sweep-repeated-l", ["sweep", "--l", "0.1", "--l", "0.1", "--steps", "2", "--seeds", "1",
                          "--t-max", "50", "--burn-in", "0"]),
    ("sweep-huge-span", ["sweep", "--c-min=-1e308", "--c-max", "1e308", "--steps", "3"]),
    # 4 c x 10 seeds: 40 rows on the block kernel, each flagged
    ("transform-overflow", ["transform", "--config", "overflow.yaml", "--c-min", "1",
                            "--c-max", "2", "--steps", "4", "--seeds", "10"]),
]


class Run(NamedTuple):
    code: int
    stderr: str
    wall_s: float
    peak_rss_mb: float  # wait4's ru_maxrss for this one child


def run(tree: Path, argv: list[str], out: Path, env: dict[str, str] | None = None) -> Run:
    """One command on tree in a fresh process, writing into out, with env
    over this process's environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(tree.resolve() / "src"),
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


def _relative(u: str, v: str) -> float:
    """|u - v| over the larger magnitude, read as floats; inf when either is not a number."""
    try:
        x, y = float(u), float(v)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _flat(doc, key: str = "") -> dict:
    """A JSON document as {dotted key: leaf value}, list items keyed by index."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {key: doc}
    flat = {}
    for name, value in items:
        flat.update(_flat(value, f"{key}.{name}" if key else str(name)))
    return flat


def _details(pa: Path, pb: Path) -> list[str]:
    """How two differing data files differ: per CSV column with the same
    header, its differing rows and largest relative difference; per JSON
    file, its differing keys.  Empty for any other file."""
    if pa.suffix == ".json":
        fa, fb = _flat(json.loads(pa.read_text())), _flat(json.loads(pb.read_text()))
        return [f"key {k}: {fa.get(k)!r} vs {fb.get(k)!r}"
                for k in sorted(fa.keys() | fb.keys()) if fa.get(k) != fb.get(k)]
    if pa.suffix != ".csv":
        return []
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (pa, pb))
    if not (ra and rb) or ra[0] != rb[0] or len(ra) != len(rb):
        return [f"header or row count differs: {len(ra)} vs {len(rb)} lines"]
    lines = []
    for j, column in enumerate(ra[0]):
        pairs = [(u[j], v[j]) for u, v in zip(ra[1:], rb[1:]) if u[j] != v[j]]
        if pairs:
            worst = max(_relative(u, v) for u, v in pairs)
            lines.append(f"column {column}: {len(pairs)} of {len(ra) - 1} rows, "
                         f"max relative difference {worst:.3g}")
    return lines


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


# the dispatch targets above X86_V3, switched off for golden.json's second set
ABOVE_X86_V3 = "AVX512_SPR AVX512_ICL X86_V4"


def _digests(tree: Path, argv: list[str], out: Path, disabled: str) -> tuple[str, dict]:
    """(numpy dispatch, {data file: sha256}) of one run of argv, in the
    order the run's manifest lists its outputs."""
    result = run(tree, argv, out, {"NPY_DISABLE_CPU_FEATURES": disabled})
    if result.code:
        raise RuntimeError(f"{' '.join(argv)} exited {result.code}: {result.stderr}")
    manifest = json.loads((out / "manifest.json").read_text())
    return (" ".join(manifest["environment"]["numpy_dispatch"]),
            {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
             for p in manifest["outputs"]})


def _golden_text(golden: dict) -> str:
    """golden.json's text: two-space indents, each argv on one line."""
    text = json.dumps(golden, indent=2)
    return re.sub(r'("argv": )(\[[^\]]*\])',
                  lambda m: m[1] + json.dumps(json.loads(m[2])), text) + "\n"


def write_golden(tree: Path) -> int:
    path = tree / "tests" / "golden.json"
    golden = json.loads(path.read_text())
    with tempfile.TemporaryDirectory(prefix="write-golden-") as work:
        for k, entry in enumerate(golden["commands"]):
            try:
                runs = [_digests(tree, entry["argv"], Path(work) / f"{k}-{n}", disabled)
                        for n, disabled in enumerate(("", ABOVE_X86_V3))]
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            (default, files), (x86_v3, files_v3) = runs
            if default == x86_v3:
                print(f"numpy's dispatch is {default!r} with and without "
                      f"NPY_DISABLE_CPU_FEATURES={ABOVE_X86_V3!r}: no second set to record",
                      file=sys.stderr)
                return 1
            entry["sha256"] = {"any": files} if files == files_v3 else dict(runs)
    path.write_text(_golden_text(golden))
    print(f"wrote {path}: {len(golden['commands'])} commands, dispatches "
          f"{default!r} and {x86_v3!r}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--write-golden"] and len(argv) <= 2:
        return write_golden(Path(argv[1] if len(argv) == 2 else Path(__file__).parents[1]))
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT_TREE CHANGE_TREE\n"
              "       python tools/compare_outputs.py --write-golden [TREE]", file=sys.stderr)
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
            for name, same in compare(*dirs):
                differences += not same
                print(f"{'identical' if same else 'DIFFERENT'} {label}/{name}")
                if not same and name != "manifest.json" and all((d / name).exists() for d in dirs):
                    for line in _details(*(d / name for d in dirs)):
                        print(f"    {line}")
    print(f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
