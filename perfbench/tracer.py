"""Spans around qbeads' public functions, installed from outside.

Each traced name is patched where its callers look it up (a module
global such as qbeads.invariant.enumerate_xcolorings, or a class
attribute such as BeadCounter.count), so no source under src/ changes.
A name that no longer exists is reported as missing with a warning and
its metrics are left out; nothing else breaks.  uninstall() restores
every original.

A span is (name, start, end, parent span index or -1, item id,
counts).  The counts (colorings, beads, nodes, ...) are read from the
call's arguments and result.  Spans stay in memory until write().
"""

import json
import sys
import time

import qbeads.catalog
import qbeads.cli
import qbeads.coloring
import qbeads.diagram
import qbeads.forms
import qbeads.invariant
import qbeads.quandle
import qbeads.search


def _form_counts(args, result):
    quandle, _blocks, field, n = args[:4]
    m, q = quandle.order, field.p**n
    # computed from the sizes, not counted: the axiom instances a full
    # sweep checks, (ii) and (iii) over m^3 element and q^3 vector
    # triples plus (i) over m elements and q vectors
    return {"forms.invalid": int(bool(result)), "forms.axiom_cases": 2 * m**3 * q**3 + m * q}


def _coloring_counts(args, result):
    return {"coloring.enumerate_xcolorings.colorings": len(result)}


def _bead_counts(args, result):
    return {"coloring.count.beads": result}


def _search_counts(args, result):
    return {"search.nodes": result.nodes, "search.forms": len(result.forms)}


# span name -> (places where callers look the function up, counter)
TARGETS = {
    "cli.main": ([(qbeads.cli, "main")], None),
    "catalog.load": ([(qbeads.catalog, "load")], None),
    "catalog.load_form": ([(qbeads.catalog, "load_form")], None),
    "diagram.load_diagram": (
        [(qbeads.diagram, "load_diagram"), (qbeads.catalog, "load_diagram"), (qbeads.cli, "load_diagram")],
        None,
    ),
    "quandle.load_quandle": (
        [(qbeads.quandle, "load_quandle"), (qbeads.catalog, "_load_quandle_file"), (qbeads.cli, "load_quandle")],
        None,
    ),
    "forms.form_violations": (
        [(qbeads.forms, "form_violations"), (qbeads.search, "form_violations")],
        _form_counts,
    ),
    "forms.eval_table": ([(qbeads.forms.BilinearForm, "eval_table")], None),
    "coloring.enumerate_xcolorings": (
        [(qbeads.coloring, "enumerate_xcolorings"), (qbeads.invariant, "enumerate_xcolorings")],
        _coloring_counts,
    ),
    "coloring.BeadCounter": ([(qbeads.coloring.BeadCounter, "__init__")], None),
    "coloring.count": ([(qbeads.coloring.BeadCounter, "count")], _bead_counts),
    "invariant.compute_invariant": (
        [(qbeads.invariant, "compute_invariant"), (qbeads.cli, "compute_invariant")],
        None,
    ),
    "search.run_search": (
        [(qbeads.search, "run_search"), (qbeads.cli, "run_search")],
        _search_counts,
    ),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.installed = []  # (owner, attribute, original)
        self.missing = []

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            # a nested call of the same name is part of the outer span
            if any(tracer.spans[i][0] == name for i in tracer.stack):
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.item, None])
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                tracer.spans[index][5] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        self.missing = []
        for name, (places, counter) in TARGETS.items():
            wrappers = {}  # id(original) -> wrapper, so aliases share one
            for owner, attr in places:
                original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if original is None:
                    print(
                        f"warning: {getattr(owner, '__name__', owner)}.{attr} not found; "
                        f"{name} is not traced there",
                        file=sys.stderr,
                    )
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, counter)
                setattr(owner, attr, wrappers[id(original)])
                self.installed.append((owner, attr, original))
            if not wrappers:
                self.missing.append(name)

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self, item_prefix):
        """{name: {"calls", "busy_s", "self_s", counts...}} over the spans
        whose item id starts with item_prefix."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, item, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, parent, item, counts) in enumerate(self.spans):
            if item is None or not item.startswith(item_prefix):
                continue
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item", "counts"],
                    "spans": self.spans,
                    "missing": self.missing,
                },
                fh,
            )
