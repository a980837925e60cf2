"""Time the invariant at the field sizes where it used to hit walls.

The rungs count the closure of the 4-braid (s1 s2^-1 s3 s2^-1)^5 (20
arcs, 4 seeds) on swap3 with a constant symplectic form: the block
[[0,1],[p-1,0]] at n = 2 for p^n = 25, 49 and 121, and two copies of
[[0,1],[2,0]] on the diagonal at p = 3, n = 4 for p^n = 81.  Each
cell is the median of REPEAT compute_invariant calls, each on a
freshly validated form, so it includes building the isometry group
and its seed orbits but not the vector tables.

The hard case times BilinearForm.isometries, and then seed_orbits,
which builds the isometries and their weighted orbits, the same way
for a degenerate alternating block at p = 2, n = 10: four copies of
[[0,1],[1,0]] on the diagonal, rank 8, on the one-element quandle.

The tables section times VectorTables(PrimeField(p), n), and then one
bilinear_table on those tables, for the n-by-n matrix with entries
(n*i + j + 1) mod p, at p^n = 16, 81, 121 and 1024 (p = 2, 3, 11, 2).
Each is the median of REPEAT builds in this one process, so it does
not show peak memory.

Run from the repository root:

    python3 tools/wall_rungs.py --label change --out BENCH_walls.json

The run is stored under its label in the output file, next to any
other labels already there, so two checkouts can fill one file.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from gen_catalog import braid_closure  # noqa: E402
from qbeads import catalog, compute_invariant, constant_form, trivial_quandle  # noqa: E402
from qbeads.diagram import import_pd  # noqa: E402
from qbeads.field import PrimeField, VectorTables  # noqa: E402

WORD = [1, -2, 3, -2] * 5
REPEAT = 3
TABLE_SIZES = [(2, 4), (3, 4), (11, 2), (2, 10)]  # (p, n) for p^n = 16, 81, 121, 1024


def timed(build, run):
    """(median seconds, the seconds of each) of REPEAT calls of run on
    a fresh build(), and the last result."""
    runs = []
    for _ in range(REPEAT):
        arg = build()
        start = time.perf_counter()
        result = run(arg)
        runs.append(round(time.perf_counter() - start, 6))
    return sorted(runs)[REPEAT // 2], runs, result


def block_diagonal(blocks):
    """The block-diagonal matrix of some square blocks."""
    n = sum(len(B) for B in blocks)
    M = [[0] * n for _ in range(n)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[at + i][at : at + len(row)] = row
        at += len(B)
    return M


def rung_forms():
    """(label, p, n, block) for each rung, in order of p^n."""
    rungs = [(p, 2, [[0, 1], [p - 1, 0]]) for p in (5, 7, 11)]
    rungs.append((3, 4, block_diagonal([[[0, 1], [2, 0]]] * 2)))
    return [(f"p^n={p**n}", p, n, B) for p, n, B in sorted(rungs, key=lambda r: r[0] ** r[1])]


def run_rungs():
    pd, signs = braid_closure(4, WORD).pd_string()
    diagram = import_pd(pd, signs=signs, name="braid4").validate()
    quandle = catalog.load_quandle("swap3")
    cells = []
    for label, p, n, B in rung_forms():
        seconds, runs, result = timed(
            lambda: constant_form(quandle, p, n, B),
            lambda form: compute_invariant(diagram, quandle, form),
        )
        polynomial = result.polynomial.render()
        cells.append(
            {
                "rung": label,
                "p": p,
                "n": n,
                "seconds": seconds,
                "runs": runs,
                "polynomial": polynomial,
            }
        )
        print(f"{label}: {seconds:.3f} s, {polynomial}", file=sys.stderr)
    return cells


def run_hard_case():
    B = block_diagonal([[[0, 1], [1, 0]]] * 4 + [[[0, 0], [0, 0]]])
    ids = frozenset([0])

    def build():
        form = constant_form(trivial_quandle(1), 2, 10, B)
        form.bilinear_tables  # built outside the timing
        return form

    case = {"p": 2, "n": 10, "rank": 8}
    case["isometries_seconds"], case["isometries_runs"], _ = timed(
        build, lambda form: form.isometries(ids)
    )
    case["seconds"], case["runs"], (first, _) = timed(build, lambda form: form.seed_orbits(ids))
    case["representatives"] = len(first)
    print(f"hard case: {case['seconds']:.3f} s, {len(first)} representatives", file=sys.stderr)
    return case


def run_tables():
    cells = []
    for p, n in TABLE_SIZES:
        field = PrimeField(p)
        B = [[(n * i + j + 1) % p for j in range(n)] for i in range(n)]
        cell = {"p^n": p**n, "p": p, "n": n}
        cell["seconds"], cell["runs"], tables = timed(
            lambda: field, lambda field: VectorTables(field, n)
        )
        cell["bilinear_seconds"], cell["bilinear_runs"], _ = timed(
            lambda: tables, lambda tables: tables.bilinear_table(B)
        )
        cells.append(cell)
        print(
            f"tables at p^n={p**n}: {cell['seconds'] * 1000:.2f} ms, "
            f"one bilinear table {cell['bilinear_seconds'] * 1000:.3f} ms",
            file=sys.stderr,
        )
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    args = parser.parse_args()
    run = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rungs": run_rungs(),
        "hard_case": run_hard_case(),
        "tables": run_tables(),
    }
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.is_file() else {}
    runs[args.label] = run
    out.write_text(json.dumps(runs, indent=2) + "\n")


if __name__ == "__main__":
    main()
