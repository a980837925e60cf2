"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qbeads is imported from src/ there.
Workloads: catalog-batch, invariant-ladder, form-validate, form-search
(see workloads.py and BENCHMARK.json).  Everything runs serially in
this one process; nothing passes --jobs or jobs.

--trace 0 sets the workload up, then runs whole passes over its items
until S seconds have passed and at least min_passes passes are done,
checking every output against the frozen expected tables outside the
timed region.  It sets up again between items, spread over the run;
setup_s is the median of all set-ups.  It prints the end-to-end
metrics.

Every time reported is scaled to a nominal host speed: a SpeedProbe
(reference.py) times a fixed pure-Python task between items, and each
set-up and item is multiplied by reference.NOMINAL_S over the mean of
the task times just before and after it.  The raw medians are in the
detail line.

--trace 1 sets up once with the tracer installed, runs untraced passes
for S seconds, then traced passes for S seconds, and prints the
per-layer metrics: for each, the value in the set-up plus the median
over traced passes, so "one set-up and one pass".  trace.overhead_ratio
is the traced median pass time over the untraced one.  Spans go to
perfbench/out/spans-<workload>.json, replacing the previous run's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (quartiles, pass and sample counts, tail percentile,
failed_ratio, environment).
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from reference import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set up at least 3 times, and up to 25 times while the set-ups so far
# took under 0.5 s, so a set-up of a few milliseconds still gets a
# steady median; the extra set-ups run between items, spread over the run
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 0.5
TAIL_GRID = (50, 75, 90, 95, 99)

# metric -> (span name, field of its summary, unit); fields other than
# calls, busy_s and self_s are counts the tracer reads at that span
PER_LAYER = {
    "cli.main.calls": ("cli.main", "calls", "count"),
    "cli.main.busy_s": ("cli.main", "busy_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "catalog.load.busy_s": ("catalog.load", "busy_s", "s"),
    "catalog.load_form.busy_s": ("catalog.load_form", "busy_s", "s"),
    "diagram.load_diagram.busy_s": ("diagram.load_diagram", "busy_s", "s"),
    "quandle.load_quandle.busy_s": ("quandle.load_quandle", "busy_s", "s"),
    "forms.form_violations.calls": ("forms.form_violations", "calls", "count"),
    "forms.form_violations.busy_s": ("forms.form_violations", "busy_s", "s"),
    "forms.eval_table.busy_s": ("forms.eval_table", "busy_s", "s"),
    "forms.invalid": ("forms.form_violations", "forms.invalid", "count"),
    "forms.axiom_cases": ("forms.form_violations", "forms.axiom_cases", "count"),
    "coloring.enumerate_xcolorings.calls": ("coloring.enumerate_xcolorings", "calls", "count"),
    "coloring.enumerate_xcolorings.busy_s": ("coloring.enumerate_xcolorings", "busy_s", "s"),
    "coloring.enumerate_xcolorings.colorings": (
        "coloring.enumerate_xcolorings",
        "coloring.enumerate_xcolorings.colorings",
        "count",
    ),
    "coloring.BeadCounter.busy_s": ("coloring.BeadCounter", "busy_s", "s"),
    "coloring.count.calls": ("coloring.count", "calls", "count"),
    "coloring.count.busy_s": ("coloring.count", "busy_s", "s"),
    "coloring.count.beads": ("coloring.count", "coloring.count.beads", "count"),
    "invariant.compute_invariant.calls": ("invariant.compute_invariant", "calls", "count"),
    "invariant.compute_invariant.busy_s": ("invariant.compute_invariant", "busy_s", "s"),
    "invariant.compute_invariant.self_s": ("invariant.compute_invariant", "self_s", "s"),
    "search.run_search.busy_s": ("search.run_search", "busy_s", "s"),
    "search.nodes": ("search.run_search", "search.nodes", "count"),
    "search.forms": ("search.run_search", "search.forms", "count"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds, probe, tracer=None, after_item=None):
    """Whole passes until `seconds` have passed and min_passes are done.

    Returns pass times (s) and item latencies (ms) by item id, both
    scaled to the probe's nominal speed, the raw pass times, attempted,
    failed and the first few failure messages.  A pass time is the sum
    of its items' times; the probe samples between items, outside them.
    Checks run after each pass, outside its timer; an item that raises
    counts as failed.  after_item(elapsed seconds) runs after every
    item, outside its timer.
    """
    pass_s, raw_pass_s, item_ms, errors = [], [], {}, []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while k < workload.min_passes or time.perf_counter() - start < seconds:
        items = workload.items(k % workload.variants)
        outputs, times, marks = [], [], []
        for item, call in items:
            if tracer is not None:
                tracer.item = f"p{k}/{item}"
            marks.append(probe.mark())
            t0 = time.perf_counter()
            try:
                output, error = call(), None
            except Exception as e:  # a raising item is a failed item
                output, error = None, f"{type(e).__name__}: {e}"
            times.append(time.perf_counter() - t0)
            outputs.append((item, output, error))
            if tracer is not None:
                tracer.item = None
            probe.poll()
            if after_item is not None:
                after_item(time.perf_counter() - start)
        probe.sample()
        scaled = [t * probe.factor(m) for t, m in zip(times, marks)]
        raw_pass_s.append(sum(times))
        pass_s.append(sum(scaled))
        for (item, _, _), t in zip(outputs, scaled):
            item_ms.setdefault(item, []).append(t * 1000.0)
        for item, output, error in outputs:
            attempted += 1
            if error is None:
                try:
                    error = workload.check(item, output)
                except Exception as e:  # malformed output is a failed item
                    error = f"check raised {type(e).__name__}: {e}"
            if error:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"pass {k} {item}: {error}")
        k += 1
    return pass_s, raw_pass_s, item_ms, attempted, failed, errors


def tail_percentile(workload):
    """Highest percentile on TAIL_GRID with at least 10 items beyond it
    in the smallest run the workload makes (min_passes passes), so the
    same percentile is reported on every run."""
    n = workload.min_passes * len(workload.items(0))
    return max(q for q in TAIL_GRID if n * (100 - q) / 100 >= 10)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args):
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(workload_cls, args, work):
    probe = SpeedProbe()
    setup_s, raw_setup_s = [], []

    def set_up():
        workload = workload_cls()
        mark = probe.mark()
        t0 = time.perf_counter()
        workload.setup(args.seed, work / f"setup{len(setup_s)}")
        raw_setup_s.append(time.perf_counter() - t0)
        probe.sample()
        setup_s.append(raw_setup_s[-1] * probe.factor(mark))
        return workload

    def more_set_ups(elapsed):
        # set-up k is due k/SETUP_MAX of the way through the run, so the
        # median spans the host's changes of speed, not one moment
        while len(setup_s) < SETUP_MIN or (
            len(setup_s) < SETUP_MAX
            and sum(raw_setup_s) < SETUP_BUDGET_S
            and elapsed >= len(setup_s) * args.seconds / SETUP_MAX
        ):
            set_up()

    workload = set_up()
    pass_s, raw_pass_s, item_ms, attempted, failed, errors = measure(
        workload, args.seconds, probe, after_item=more_set_ups
    )
    q = tail_percentile(workload)
    # A pass holds a few items of very different cost, each once, so a
    # percentile over all samples can fall on the edge between two items
    # and jump between them as the number of passes changes.  Each item
    # id's median is steady; the percentiles are taken over those.
    item_medians = sorted(statistics.median(v) for v in item_ms.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "item_ms_p50": (statistics.median(item_medians), "ms"),
        "item_ms_tail": (percentile(item_medians, q), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "setup_s_runs": setup_s,
        "raw_setup_s_median": statistics.median(raw_setup_s),
        "passes": len(pass_s),
        "pass_s_quartiles": quartiles(pass_s),
        "raw_pass_s_median": statistics.median(raw_pass_s),
        "reference_s_quartiles": quartiles(probe.samples),
        "item_samples": sum(len(v) for v in item_ms.values()),
        "item_ids": len(item_ms),
        "item_ms_tail_percentile": q,
        "failed_ratio": failed / attempted,
        "errors": errors,
    }
    return metrics, attempted, failed, detail


def per_layer(workload_cls, args, work):
    from tracer import Tracer

    tracer = Tracer()
    probe = SpeedProbe()
    workload = workload_cls()
    with tracer:
        tracer.item = "setup"
        workload.setup(args.seed, work / "setup0")
        tracer.item = None
    plain_s, _, _, attempted, failed, errors = measure(workload, args.seconds, probe)
    with tracer:
        traced_s, _, _, t_attempted, t_failed, t_errors = measure(workload, args.seconds, probe, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.json")

    setup = tracer.summary("setup")
    passes = [tracer.summary(f"p{k}/") for k in range(len(traced_s))]
    metrics = {}
    for metric, (span, field, unit) in PER_LAYER.items():
        if span in tracer.missing:
            continue
        value = setup.get(span, {}).get(field, 0)
        value += statistics.median(p.get(span, {}).get(field, 0) for p in passes)
        metrics[metric] = (value, unit)
    if "search.run_search" not in tracer.missing:
        nodes, busy = metrics["search.nodes"][0], metrics["search.run_search.busy_s"][0]
        metrics["search.nodes_per_s"] = (nodes / busy if busy else 0.0, "1/s")
        forms = metrics["search.forms"][0]
        metrics["search.yield"] = (forms / nodes if nodes else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s),
        "ratio",
    )
    detail = {
        "untraced_passes": len(plain_s),
        "traced_passes": len(traced_s),
        "untraced_pass_s": statistics.median(plain_s),
        "traced_pass_s": statistics.median(traced_s),
        "missing": tracer.missing,
        "failed_ratio": (failed + t_failed) / (attempted + t_attempted),
        "errors": errors + t_errors,
    }
    return metrics, attempted + t_attempted, failed + t_failed, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qbeads" / "__init__.py").is_file():
        print(f"error: no qbeads sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qbeads

    if Path(qbeads.__file__).resolve().parent != (SRC / "qbeads").resolve():
        print(f"error: imported qbeads from {qbeads.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    try:
        run = per_layer if args.trace else end_to_end
        metrics, attempted, failed, detail = run(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": dict(environment(args), **detail)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
