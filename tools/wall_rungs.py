"""Time the invariant at the field sizes where it used to hit walls.

The rungs count three diagrams on swap3 with a constant symplectic
form, the block [[0,1],[p-1,0]] at n = 2, or two copies of [[0,1],[2,0]]
on the diagonal at p = 3, n = 4 for p^n = 81:

- the closure of the 4-braid (s1 s2^-1 s3 s2^-1)^5 (20 arcs, 4 seeds)
  at p^n = 25, 49, 81 and 121;
- the pretzel link P(3,3,3,3,3) (15 arcs, 5 seeds) at p^n = 25, 49
  and 121;
- the closure of the 5-braid (s1 s2^-1 s3 s4^-1)^6 (24 arcs, 5 seeds)
  at p^n = 25 and 49.

Each cell runs in a fresh process of its own, and is the median of
REPEAT compute_invariant calls, or of the calls made once they have
taken RUNG_SECONDS (at least three), each on a freshly built diagram
and a freshly validated form, as a one-shot `qbeads invariant` runs
it: each call includes the isometry group and its seed orbits, but not
the vector tables.  Plans and kernels are kept by diagram structure
(see diagram.compile_structure), so the fresh diagrams of one
construction share one plan and one kernel, built and compiled on the
first call in the process: a cell pays for the plan only on its first
call, which the median leaves out.  A cell records the process's peak
RSS, the polynomial, and its plan: the seeds in plan order, the checks
of each stage, its "key" step counted as a check, and the stages whose
loop is keyed, those with a "key" step (see diagram.propagation_plan).
A package whose plans mark no keys but which has diagram.keyed_checks
reports the stages that function keys, so a round against it compares
like with like.

With --against DIR the rungs also run on the package of the checkout
at DIR, cell by cell, in RUNG_ROUNDS rounds that alternate which
checkout runs first, so host drift between processes minutes apart
falls on both sides alike.  The cell's own fields are then the median
over its rounds of this checkout, and "against" holds the same for
DIR; the polynomials must be the same on both sides.

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
conj(S3) at p=2, n=3, swap3 at p=7, n=2, p=2, n=4 and p=5, n=3.  Each
run is a fresh process, so its peak RSS is the search's own (with the
interpreter and the qbeads imports); a cell is the median of
SEARCH_REPEAT runs, or one run if the first takes over ONE_SHOT_AFTER
seconds.  A cell also records the number of forms, the search nodes,
the space estimate (which the forms may not pass) and the SHA-256 of
the list of emitted blocks, which is the same exactly when the same
forms come out in the same order.  After its timing the first run
re-validates every form it emitted with verify_search_output, and
fails on any violation; the later runs must emit the same blocks.
Each run is followed by one of `qbeads form-search --allow-large
--format json` on the same search, in a fresh process of its own: the
cell records the seconds of its cli.main call (the median, as for the
search), its peak RSS and the SHA-256 of its stdout, which must be the
same in every run.

The batch section runs `qbeads batch --quandle swap3 --form swap3-full
--format json` BATCH_REPEAT times, each in a fresh process, so every
run pays the imports' first calls, the catalog reads and the plan and
compile of every diagram structure, as a one-shot command does: the
cost a benchmark's median pass over a warm process does not see.  The
cell records the median seconds of the cli.main call, the largest peak
RSS and the SHA-256 of stdout with its "elapsed" fields removed, which
must be the same in every run.  The warm cell then runs the batches of
both catalog forms, swap3-full and swap3-partial, WARM_REPEAT times in
one fresh process, as a long-lived caller does.  It records the
seconds of every run, the first of which plans and compiles every
structure, the median of the later runs, which plan and compile
nothing, and the SHA-256 of each form's stdout, which must be the same
in every run, and for swap3-full the same as the one-shot cell's.

The load section times diagram.load_diagram, which reads, parses and
validates a file and builds no plan, on the closures of the 4-braid
(s1 s2^-1 s3 s2^-1)^k with LOAD_SIZES crossings, written by
format_diagram with their PD code in a comment.  Each size runs in a
fresh process of its own; a cell is the median of REPEAT loads of one
file, with the process's peak RSS and the SHA-256 of the file, which
is the same in every checkout whose import_pd and format_diagram agree.
Its microseconds per crossing show whether loading scales linearly.

Run from the repository root:

    python3 tools/wall_rungs.py --label change --out BENCH_walls.json
    python3 tools/wall_rungs.py --label plans --out BENCH_plans.json \
        --sections rungs --against ../parent

--sections runs only the named sections; --against changes only the
rungs section.

The run is stored under its label in the output file, next to any
other labels already there, so two checkouts can fill one file.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a rung cell runs on the package in the source directory it is given
# (--rung-cell SRC NAME SIZE), which may be another checkout's
SRC = Path(sys.argv[2]) if sys.argv[1:2] == ["--rung-cell"] else ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "tools"))

from qbeads import catalog, cli, compute_invariant, constant_form, diagram, trivial_quandle  # noqa: E402
from qbeads.diagram import format_diagram, import_pd, load_diagram  # noqa: E402
from qbeads.field import PrimeField, VectorTables  # noqa: E402
from qbeads.quandle import conjugation_quandle, format_quandle  # noqa: E402
from qbeads.search import run_search, verify_search_output  # noqa: E402

# after qbeads: gen_catalog puts this checkout's src first on the path
# and imports qbeads, which must find the package of SRC imported
from gen_catalog import braid_closure, pretzel_link  # noqa: E402

# label -> the construction, as called on tools/gen_catalog.py, and the
# p^n of its rungs
DIAGRAMS = {
    "braid4": (lambda: braid_closure(4, [1, -2, 3, -2] * 5), (25, 49, 81, 121)),
    "P33333": (lambda: pretzel_link([3, 3, 3, 3, 3]), (25, 49, 121)),
    "braid5": (lambda: braid_closure(5, [1, -2, 3, -4] * 6), (25, 49)),
}
REPEAT = 9
RUNG_SECONDS = 20.0
RUNG_ROUNDS = 5
# (p, n) for p^n = 16, 81, 121, 1021 and 1024
TABLE_SIZES = [(2, 4), (3, 4), (11, 2), (1021, 1), (2, 10)]
# (quandle, p, n) of the search cells
SEARCHES = [("swap3", 3, 3), ("conj(S3)", 2, 3), ("swap3", 7, 2), ("swap3", 2, 4), ("swap3", 5, 3)]
SEARCH_REPEAT = 3
ONE_SHOT_AFTER = 10.0
BATCH_ARGV = ["batch", "--quandle", "swap3", "--form", "swap3-full", "--format", "json"]
BATCH_REPEAT = 9
WARM_FORMS = ("swap3-full", "swap3-partial")
WARM_REPEAT = 21
# crossings of the braid closures of the load section
LOAD_SIZES = (100, 1000, 10000)


def timed(build, run, budget=None):
    """(median seconds, the seconds of each) of REPEAT calls of run on
    a fresh build(), or of those made once the calls have taken budget
    seconds and at least three are done, and the last result."""
    runs = []
    while len(runs) < REPEAT and (budget is None or len(runs) < 3 or sum(runs) < budget):
        arg = build()
        start = time.perf_counter()
        result = run(arg)
        runs.append(round(time.perf_counter() - start, 6))
    return sorted(runs)[len(runs) // 2], runs, result


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


def rung_cell(name, size):
    """One rung timed, as a JSON line: see the module docstring.  Run in
    a fresh process of its own, on the package in SRC."""
    quandle = catalog.load_quandle("swap3")
    pd, signs = DIAGRAMS[name][0]().pd_string()
    p, n, B = rung_form(size)
    seconds, runs, result = timed(
        lambda: (
            import_pd(pd, signs=signs, name=name).validate(),
            constant_form(quandle, p, n, B),
        ),
        lambda args: compute_invariant(args[0], quandle, args[1]),
        RUNG_SECONDS,
    )
    plan = import_pd(pd, signs=signs, name=name).plan
    # a package that finds its keys after planning, not in the plan
    keyed = getattr(diagram, "keyed_checks", None)
    if keyed is None:
        keyed_stages = [k for k, (_, steps) in enumerate(plan) if any(kind == "key" for kind, *_ in steps)]
    else:
        keyed_stages = [k for k, j in enumerate(keyed(plan)) if j is not None]
    cell = {
        "seconds": seconds,
        "runs": runs,
        "peak_rss_mb": peak_rss_mb(),
        "polynomial": result.polynomial.render(),
        "seeds": [seed for seed, _ in plan],
        "checks_per_stage": [sum(kind in ("check", "key") for kind, *_ in steps) for _, steps in plan],
        "keyed_stages": keyed_stages,
    }
    print(json.dumps(cell))


def rung_side(rounds):
    """A side of a rung cell from its rounds: the median of their
    medians, the largest peak RSS and the plan, which every round must
    share."""
    plans = {json.dumps([r[key] for key in ("seeds", "checks_per_stage", "keyed_stages")]) for r in rounds}
    assert len(plans) == 1, "one checkout built two plans for one rung"
    side = {key: rounds[0][key] for key in ("seeds", "checks_per_stage", "keyed_stages")}
    side["seconds"] = sorted(r["seconds"] for r in rounds)[len(rounds) // 2]
    side["peak_rss_mb"] = max(r["peak_rss_mb"] for r in rounds)
    side["rounds"] = [{key: r[key] for key in ("seconds", "runs", "peak_rss_mb")} for r in rounds]
    return side


def run_rungs(against=None):
    sources = {"this": ROOT / "src"}
    if against is not None:
        sources["against"] = Path(against).resolve() / "src"
    order = list(sources)
    cells = []
    for name, (_, sizes) in DIAGRAMS.items():
        for size in sizes:
            rounds = {side: [] for side in order}
            for r in range(RUNG_ROUNDS if against is not None else 1):
                for side in order if r % 2 == 0 else order[::-1]:
                    rounds[side].append(child("--rung-cell", sources[side], name, size))
            polynomials = {cell["polynomial"] for side in order for cell in rounds[side]}
            assert len(polynomials) == 1, f"{name} at p^n={size} gave {sorted(polynomials)}"
            p, n, _ = rung_form(size)
            cell = {"diagram": name, "rung": f"p^n={size}", "p": p, "n": n}
            cell["polynomial"] = polynomials.pop()
            cell.update(rung_side(rounds["this"]))
            line = f"{name} at p^n={size}: {cell['seconds']:.3f} s, {cell['peak_rss_mb']} MB"
            if against is not None:
                cell["against"] = rung_side(rounds["against"])
                line += f"; against {cell['against']['seconds']:.3f} s, {cell['against']['peak_rss_mb']} MB"
            cells.append(cell)
            print(f"{line}; {cell['polynomial']}", file=sys.stderr)
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


def peak_rss_mb():
    """This process's peak RSS.  Linux keeps ru_maxrss across exec, so a
    cell process started by a larger one would read the larger one's
    peak; VmHWM in /proc/self/status is the cell's own.  Both are in
    KiB."""
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024, 1)
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def search_cell(name, p, n, verify):
    """One timed run_search, in all mode, as a JSON line on stdout; run
    in a process of its own.  With verify, after the timing and after
    the peak RSS is read, every form is re-validated
    (verify_search_output), and any violation fails the cell."""
    quandle = search_quandle(name)
    start = time.perf_counter()
    result = run_search(quandle, p, n, allow_large=True)
    seconds = time.perf_counter() - start
    blocks = repr([form.blocks for form in result.forms]).encode()
    cell = {
        "seconds": round(seconds, 6),
        "peak_rss_mb": peak_rss_mb(),
        "forms": len(result.forms),
        "nodes": result.nodes,
        "space_estimate": result.space_estimate,
        "sha256": hashlib.sha256(blocks).hexdigest(),
    }
    failures = verify_search_output(result) if verify else []
    if failures:
        sys.exit(f"{name} at p={p}, n={n}: form {failures[0][0]} is invalid: {failures[0][1][0]}")
    print(json.dumps(cell))


def run_cli(argv):
    """(seconds, stdout) of cli.main(argv); exit on a nonzero exit code."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        sys.exit(f"qbeads {' '.join(argv)} exited {code}")
    return seconds, out.getvalue()


def cli_line(argv, output=lambda text: text):
    """Run cli.main(argv) with stdout captured, and print its seconds,
    the process's peak RSS and the SHA-256 of output(stdout) as a JSON
    line."""
    seconds, text = run_cli(argv)
    cell = {
        "seconds": round(seconds, 6),
        "peak_rss_mb": peak_rss_mb(),
        "sha256": hashlib.sha256(output(text).encode()).hexdigest(),
    }
    print(json.dumps(cell))


def cli_cell(quandle_path, p, n):
    """One timed `qbeads form-search --allow-large --format json`, in
    all mode, through cli.main; run in a process of its own."""
    argv = ["form-search", quandle_path, "--p", str(p), "--n", str(n), "--allow-large", "--format", "json"]
    cli_line(argv)


def without_elapsed(value):
    """A JSON value with every "elapsed" field dropped, at any depth."""
    if isinstance(value, dict):
        return {k: without_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [without_elapsed(v) for v in value]
    return value


def batch_text(text):
    """A batch's JSON stdout without its elapsed fields."""
    return json.dumps(without_elapsed(json.loads(text)))


def batch_cell():
    """One timed BATCH_ARGV through cli.main, hashed without its elapsed
    fields; run in a fresh process of its own."""
    cli_line(BATCH_ARGV, batch_text)


def warm_batch_cell():
    """WARM_REPEAT runs of the batches of WARM_FORMS through cli.main,
    all in this one process, as a JSON line: the seconds of each run,
    the process's peak RSS and each form's SHA-256, which must be the
    same in every run."""
    runs, digests = [], set()
    for _ in range(WARM_REPEAT):
        seconds, digest = 0.0, {}
        for form in WARM_FORMS:
            took, text = run_cli(["batch", "--quandle", "swap3", "--form", form, "--format", "json"])
            seconds += took
            digest[form] = hashlib.sha256(batch_text(text).encode()).hexdigest()
        runs.append(round(seconds, 6))
        digests.add(tuple(digest.items()))
    if len(digests) != 1:
        sys.exit("the warm batches printed different outputs")
    print(json.dumps({"runs": runs, "peak_rss_mb": peak_rss_mb(), "sha256": digest}))


def child(*args, cwd=None):
    """The JSON line that this script prints when run with args."""
    argv = [sys.executable, str(Path(__file__).resolve()), *map(str, args)]
    # stderr is left to show a failed cell's message
    run = subprocess.run(argv, cwd=cwd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(run.stdout)


def run_searches():
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, p, n in SEARCHES:
            # the CLI prints the quandle's path, so it is the same in every run
            quandle_file = f"{name}.quandle"
            (Path(tmp) / quandle_file).write_text(format_quandle(search_quandle(name)))
            runs, cli_runs = [], []
            while len(runs) < SEARCH_REPEAT:
                runs.append(child("--search-cell", name, p, n, "verify" if not runs else ""))
                cli_runs.append(child("--cli-cell", quandle_file, p, n, cwd=tmp))
                if runs[0]["seconds"] > ONE_SHOT_AFTER:
                    break
            cells.append(search_cell_record(name, p, n, runs, cli_runs))
    return cells


def search_cell_record(name, p, n, runs, cli_runs):
    """The cell of a search from its runs: medians, the largest peak RSS,
    and the outputs, which every run must share."""
    seconds = sorted(run["seconds"] for run in runs)[len(runs) // 2]
    outputs = {(run["forms"], run["nodes"], run["space_estimate"], run["sha256"]) for run in runs}
    assert len(outputs) == 1, f"{name} at p={p}, n={n} gave different forms across runs"
    assert len({run["sha256"] for run in cli_runs}) == 1, f"{name} at p={p}, n={n} printed different outputs"
    assert runs[0]["forms"] <= runs[0]["space_estimate"], f"{name} at p={p}, n={n} passed its estimate"
    cell = {"quandle": name, "p": p, "n": n, "mode": "all", "seconds": seconds}
    cell["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
    cell["one_shot"] = len(runs) == 1
    cell.update({key: runs[0][key] for key in ("forms", "nodes", "space_estimate", "sha256")})
    cell["runs"] = [{key: run[key] for key in ("seconds", "peak_rss_mb")} for run in runs]
    cell["cli_seconds"] = sorted(run["seconds"] for run in cli_runs)[len(cli_runs) // 2]
    cell["cli_peak_rss_mb"] = max(run["peak_rss_mb"] for run in cli_runs)
    cell["cli_sha256"] = cli_runs[0]["sha256"]
    cell["cli_runs"] = [{key: run[key] for key in ("seconds", "peak_rss_mb")} for run in cli_runs]
    print(
        f"search {name} p={p} n={n}: {seconds:.3f} s, {cell['peak_rss_mb']} MB, "
        f"{cell['forms']} forms; CLI {cell['cli_seconds']:.3f} s, {cell['cli_peak_rss_mb']} MB",
        file=sys.stderr,
    )
    return cell


def run_batch():
    runs = [child("--batch-cell") for _ in range(BATCH_REPEAT)]
    assert len({run["sha256"] for run in runs}) == 1, "the batch printed different outputs"
    cell = {"argv": BATCH_ARGV, "seconds": sorted(run["seconds"] for run in runs)[BATCH_REPEAT // 2]}
    cell["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
    cell["sha256"] = runs[0]["sha256"]
    cell["runs"] = [{key: run[key] for key in ("seconds", "peak_rss_mb")} for run in runs]
    print(f"one-shot batch: {cell['seconds'] * 1000:.1f} ms, {cell['peak_rss_mb']} MB", file=sys.stderr)
    warm = child("--warm-batch-cell")
    assert warm["sha256"]["swap3-full"] == cell["sha256"], "the warm batch printed another output"
    later = sorted(warm["runs"][1:])
    cell["warm"] = {
        "forms": list(WARM_FORMS),
        "first_seconds": warm["runs"][0],
        "seconds": later[len(later) // 2],
        "peak_rss_mb": warm["peak_rss_mb"],
        "sha256": warm["sha256"],
        "runs": warm["runs"],
    }
    print(
        f"warm batches of {', '.join(WARM_FORMS)}: first {warm['runs'][0] * 1000:.1f} ms, "
        f"then {cell['warm']['seconds'] * 1000:.1f} ms, {warm['peak_rss_mb']} MB",
        file=sys.stderr,
    )
    return cell


def load_file(crossings, folder):
    """The closure of (s1 s2^-1 s3 s2^-1)^(crossings / 4) as a diagram
    file in folder."""
    name = f"braid{crossings}"
    pd, signs = braid_closure(4, [1, -2, 3, -2] * (crossings // 4)).pd_string()
    path = Path(folder) / f"{name}.diagram"
    path.write_text(format_diagram(import_pd(pd, signs=signs, name=name)))
    return path


def load_cell(path):
    """REPEAT timed load_diagram calls on one file, as a JSON line; run
    in a fresh process of its own."""
    seconds, runs, diagram = timed(lambda: path, load_diagram)
    cell = {"seconds": seconds, "runs": runs, "peak_rss_mb": peak_rss_mb()}
    cell["arcs"], cell["crossings"] = diagram.arc_count, len(diagram.crossings)
    print(json.dumps(cell))


def run_loads():
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        for crossings in LOAD_SIZES:
            path = load_file(crossings, tmp)
            cell = {"file": path.name, "bytes": path.stat().st_size}
            cell["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            cell.update(child("--load-cell", path))
            assert cell["crossings"] == crossings, f"{path.name} has {cell['crossings']} crossings"
            cell["us_per_crossing"] = round(cell["seconds"] / crossings * 1e6, 3)
            cells.append(cell)
            print(
                f"load {path.name}: {cell['seconds'] * 1000:.2f} ms, "
                f"{cell['us_per_crossing']} us a crossing, {cell['peak_rss_mb']} MB",
                file=sys.stderr,
            )
    return cells


SECTIONS = {
    "rungs": run_rungs,
    "hard_case": run_hard_case,
    "tables": run_tables,
    "search": run_searches,
    "batch": run_batch,
    "load": run_loads,
}


def main():
    if sys.argv[1:2] == ["--rung-cell"]:
        rung_cell(sys.argv[3], int(sys.argv[4]))
        return
    if sys.argv[1:2] == ["--search-cell"]:
        name, p, n, verify = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
        search_cell(name, p, n, bool(verify))
        return
    if sys.argv[1:2] == ["--cli-cell"]:
        cli_cell(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
        return
    if sys.argv[1:2] == ["--batch-cell"]:
        batch_cell()
        return
    if sys.argv[1:2] == ["--warm-batch-cell"]:
        warm_batch_cell()
        return
    if sys.argv[1:2] == ["--load-cell"]:
        load_cell(Path(sys.argv[2]))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    parser.add_argument(
        "--sections", nargs="+", choices=SECTIONS, default=list(SECTIONS),
        help="run only these sections (default: all)",
    )
    parser.add_argument(
        "--against", metavar="DIR",
        help="run every rung cell on the checkout at DIR too, alternating cell by cell",
    )
    args = parser.parse_args()
    run = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    for section in args.sections:
        run[section] = SECTIONS[section](args.against) if section == "rungs" else SECTIONS[section]()
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.is_file() else {}
    runs[args.label] = run
    out.write_text(json.dumps(runs, indent=2) + "\n")


if __name__ == "__main__":
    main()
