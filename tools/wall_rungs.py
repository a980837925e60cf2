"""Time the invariant at the field sizes where it used to hit walls.

The rungs count three diagrams on swap3 with a constant symplectic
form, the block [[0,1],[p-1,0]] at n = 2, or two copies of [[0,1],[2,0]]
on the diagonal at p = 3, n = 4 for p^n = 81:

- the closure of the 4-braid (s1 s2^-1 s3 s2^-1)^5 (20 arcs, 4 seeds)
  at p^n = 25, 49, 81 and 121;
- the pretzel link P(3,3,3,3,3) (15 arcs, 5 seeds) at p^n = 25 and 49;
- the closure of the 5-braid (s1 s2^-1 s3 s4^-1)^6 (24 arcs, 5 seeds)
  at p^n = 25 and 49.

Each cell is the median of REPEAT compute_invariant calls, each on a
freshly built diagram and a freshly validated form, as a one-shot
`qbeads invariant` runs it: each call includes the diagram's plan, the
interpreted runs and the compile of its kernel (see the coloring
module), the isometry group and its seed orbits, but not the vector
tables.

The hard case times BilinearForm.isometries, and then seed_orbits,
which builds the isometries and their weighted orbits, the same way
for a degenerate alternating block at p = 2, n = 10: four copies of
[[0,1],[1,0]] on the diagonal, rank 8, on the one-element quandle.

The tables section times VectorTables(PrimeField(p), n), and then one
bilinear_table on those tables, for the n-by-n matrix with entries
(n*i + j + 1) mod p, at p^n = 16, 81, 121, 1021 and 1024 (p = 2, 3,
11, 1021, 2).
Each is the median of REPEAT builds in this one process, so it does
not show peak memory.

The search section times run_search in all mode on swap3 at p=3, n=3,
conj(S3) at p=2, n=3 and swap3 at p=7, n=2.  Each run is a fresh
process, so its peak RSS is the search's own (with the interpreter and
the qbeads imports); a cell is the median of SEARCH_REPEAT runs, or one
run if the first takes over ONE_SHOT_AFTER seconds.  A cell also
records the number of forms, the search nodes and the SHA-256 of the
list of emitted blocks, which is the same exactly when the same forms
come out in the same order.

Run from the repository root:

    python3 tools/wall_rungs.py --label change --out BENCH_walls.json

--sections runs only the named sections.

The run is stored under its label in the output file, next to any
other labels already there, so two checkouts can fill one file.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from gen_catalog import braid_closure, pretzel_link  # noqa: E402
from qbeads import catalog, compute_invariant, constant_form, trivial_quandle  # noqa: E402
from qbeads.diagram import import_pd  # noqa: E402
from qbeads.field import PrimeField, VectorTables  # noqa: E402
from qbeads.quandle import conjugation_quandle  # noqa: E402
from qbeads.search import run_search  # noqa: E402

# label -> the construction, as called on tools/gen_catalog.py, and the
# p^n of its rungs
DIAGRAMS = {
    "braid4": (lambda: braid_closure(4, [1, -2, 3, -2] * 5), (25, 49, 81, 121)),
    "P33333": (lambda: pretzel_link([3, 3, 3, 3, 3]), (25, 49)),
    "braid5": (lambda: braid_closure(5, [1, -2, 3, -4] * 6), (25, 49)),
}
REPEAT = 9
# (p, n) for p^n = 16, 81, 121, 1021 and 1024
TABLE_SIZES = [(2, 4), (3, 4), (11, 2), (1021, 1), (2, 10)]
# (quandle, p, n) of the search cells
SEARCHES = [("swap3", 3, 3), ("conj(S3)", 2, 3), ("swap3", 7, 2)]
SEARCH_REPEAT = 3
ONE_SHOT_AFTER = 10.0


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


def rung_form(size):
    """(p, n, block) of the rung at p^n = size."""
    if size == 81:
        return 3, 4, block_diagonal([[[0, 1], [2, 0]]] * 2)
    p = round(size**0.5)
    return p, 2, [[0, 1], [p - 1, 0]]


def run_rungs():
    quandle = catalog.load_quandle("swap3")
    cells = []
    for name, (construction, sizes) in DIAGRAMS.items():
        pd, signs = construction().pd_string()
        for size in sizes:
            p, n, B = rung_form(size)
            seconds, runs, result = timed(
                lambda: (
                    import_pd(pd, signs=signs, name=name).validate(),
                    constant_form(quandle, p, n, B),
                ),
                lambda args: compute_invariant(args[0], quandle, args[1]),
            )
            polynomial = result.polynomial.render()
            cells.append(
                {
                    "diagram": name,
                    "rung": f"p^n={size}",
                    "p": p,
                    "n": n,
                    "seconds": seconds,
                    "runs": runs,
                    "polynomial": polynomial,
                }
            )
            print(f"{name} at p^n={size}: {seconds:.3f} s, {polynomial}", file=sys.stderr)
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


def search_quandle(name):
    if name == "conj(S3)":
        # S3 as permutations of 3 points, composed g∘h
        perms = list(itertools.permutations(range(3)))
        index = {g: i for i, g in enumerate(perms)}
        table = [[index[tuple(g[h[k]] for k in range(3))] for h in perms] for g in perms]
        return conjugation_quandle(table, name=name)
    return catalog.load_quandle(name)


def search_cell(name, p, n):
    """One timed run_search, in all mode, as a JSON line on stdout; run
    in a process of its own."""
    quandle = search_quandle(name)
    start = time.perf_counter()
    result = run_search(quandle, p, n, allow_large=True)
    seconds = time.perf_counter() - start
    blocks = repr([form.blocks for form in result.forms]).encode()
    cell = {
        "seconds": round(seconds, 6),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "forms": len(result.forms),
        "nodes": result.nodes,
        "sha256": hashlib.sha256(blocks).hexdigest(),
    }
    print(json.dumps(cell))


def run_searches():
    cells = []
    for name, p, n in SEARCHES:
        runs = []
        while len(runs) < SEARCH_REPEAT:
            child = subprocess.run(
                [sys.executable, __file__, "--search-cell", name, str(p), str(n)],
                check=True, capture_output=True, text=True,
            )
            runs.append(json.loads(child.stdout))
            if runs[0]["seconds"] > ONE_SHOT_AFTER:
                break
        seconds = sorted(run["seconds"] for run in runs)[len(runs) // 2]
        outputs = {(run["forms"], run["nodes"], run["sha256"]) for run in runs}
        assert len(outputs) == 1, f"{name} at p={p}, n={n} gave different forms across runs"
        cell = {"quandle": name, "p": p, "n": n, "mode": "all", "seconds": seconds}
        cell["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
        cell["one_shot"] = len(runs) == 1
        cell.update({key: runs[0][key] for key in ("forms", "nodes", "sha256")})
        cell["runs"] = [{key: run[key] for key in ("seconds", "peak_rss_mb")} for run in runs]
        cells.append(cell)
        print(
            f"search {name} p={p} n={n}: {seconds:.3f} s, {cell['peak_rss_mb']} MB, "
            f"{cell['forms']} forms",
            file=sys.stderr,
        )
    return cells


SECTIONS = {
    "rungs": run_rungs,
    "hard_case": run_hard_case,
    "tables": run_tables,
    "search": run_searches,
}


def main():
    if sys.argv[1:2] == ["--search-cell"]:
        name, p, n = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
        search_cell(name, p, n)
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    parser.add_argument(
        "--sections", nargs="+", choices=SECTIONS, default=list(SECTIONS),
        help="run only these sections (default: all)",
    )
    args = parser.parse_args()
    run = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    for section in args.sections:
        run[section] = SECTIONS[section]()
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.is_file() else {}
    runs[args.label] = run
    out.write_text(json.dumps(runs, indent=2) + "\n")


if __name__ == "__main__":
    main()
