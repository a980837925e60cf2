"""Command-line front end.

Subcommands: quandle-check, form-check, form-search, invariant, batch,
catalog-list.  Exit codes: 0 success/valid, 1 axiom violation or
expected-value mismatch (including engine disagreement), 2 input error.
Text output for every subcommand is a pure function of its JSON output
(minus timing fields), so the two formats always agree.

--format json prints a record through to_json, which writes what
json.dumps(record, indent=2, sort_keys=True) writes, byte for byte.
With indent set, CPython's json runs its pure-Python encoder; to_json
walks the record once and quotes strings with the C encoder instead.
"""

import argparse
import functools
import os
import sys
import time
from json.encoder import INFINITY, encode_basestring_ascii

from . import catalog
from .coloring import ENGINES
from .errors import AxiomError, InputError, QBeadsError, read_text
from .forms import format_forms, load_form
from .diagram import load_diagram
from .invariant import InvariantPolynomial, compute_invariant
from .quandle import load_quandle, parse_quandle
from .search import MODES, run_search


def _resolve_quandle(token):
    """A file path if one exists, otherwise a catalog id."""
    if os.path.isfile(token):
        return load_quandle(token)
    return catalog.load_quandle(token)


def _resolve_form(args, quandle):
    """args.form validated against quandle, resolved from args.quandle;
    a catalog form gets the quandle only if it came from the catalog."""
    if os.path.isfile(args.form):
        return load_form(args.form, quandle)
    form = catalog.load_form(args.form, None if os.path.isfile(args.quandle) else quandle)
    if form.quandle != quandle:
        raise InputError(
            f"catalog form {args.form!r} belongs to quandle {form.quandle.name!r}"
        )
    return form


def _resolve_link(token):
    if os.path.isfile(token):
        return load_diagram(token)
    return catalog.link_diagram(token)


def to_json(value):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    values made of dicts with str keys, lists, tuples (written as
    lists), str, int, float, bool and None."""
    parts = []
    _write_json(value, "\n", parts.append)
    return "".join(parts)


def _write_json(value, newline, put):
    """Put the JSON text of value, its nested lines starting with
    newline plus two spaces."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            put("NaN")
        elif value == INFINITY:
            put("Infinity")
        elif value == -INFINITY:
            put("-Infinity")
        else:
            put(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            put(separator)
            _write_json(item, inner, put)
            separator = "," + inner
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            put(separator + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, put)
            separator = "," + inner
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, record, render):
    if args.format == "json":
        sys.stdout.write(to_json(record) + "\n")
    else:
        sys.stdout.write(render(record))


# -- subcommands ------------------------------------------------------


def render_check(record):
    if record["valid"]:
        return "valid\n"
    lines = [f"invalid: {len(record['violations'])} violation(s)"]
    lines += record["violations"]
    return "\n".join(lines) + "\n"


def cmd_quandle_check(args):
    path = args.file
    if not os.path.isfile(path):
        raise InputError(f"no such file: {path}")
    text = read_text(path)
    # malformed files raise InputError (exit 2); only axiom failures
    # count as "invalid" (exit 1)
    try:
        parse_quandle(text)
        violations = []
    except AxiomError as e:
        violations = e.violations
    record = {"file": path, "valid": not violations, "violations": violations}
    _emit(args, record, render_check)
    return 0 if record["valid"] else 1


def cmd_form_check(args):
    quandle = _resolve_quandle(args.quandle)
    try:
        _resolve_form(args, quandle)
        violations = []
    except AxiomError as e:
        violations = e.violations
    record = {
        "quandle": args.quandle,
        "form": args.form,
        "valid": not violations,
        "violations": violations,
    }
    _emit(args, record, render_check)
    return 0 if record["valid"] else 1


def render_search(record):
    lines = []
    for text in record["forms"]:
        lines.append(text.rstrip("\n"))
    lines.append(f"found {record['count']} form(s)")
    lines.append("complete" if record["complete"] else "incomplete")
    return "\n".join(lines) + "\n"


def cmd_form_search(args):
    quandle = _resolve_quandle(args.quandle)
    result = run_search(
        quandle,
        args.p,
        args.n,
        mode=args.mode,
        limit=args.limit,
        time_budget=args.budget,
        allow_large=args.allow_large,
    )
    record = {
        "quandle": args.quandle,
        "p": args.p,
        "n": args.n,
        "mode": args.mode,
        "count": len(result.forms),
        "complete": result.complete,
        "space_estimate": result.space_estimate,
        "nodes": result.nodes,
        "forms": format_forms(result.forms),
    }
    _emit(args, record, render_search)
    return 0


def render_invariant(record):
    return InvariantPolynomial.from_term_list(record["terms"]).render() + "\n"


def cmd_invariant(args):
    diagram = _resolve_link(args.link)
    quandle = _resolve_quandle(args.quandle)
    form = _resolve_form(args, quandle)
    result = compute_invariant(diagram, quandle, form, engine=args.engine)
    record = result.record()
    record["link"] = args.link if not os.path.isfile(args.link) else diagram.name
    _emit(args, record, render_invariant)
    return 0


def render_batch(record):
    lines = []
    for poly_text, links in record["groups"]:
        lines.append(f"{poly_text}: {', '.join(links)}")
    if record["diffs"] is not None:
        if record["diffs"]:
            for d in record["diffs"]:
                lines.append(
                    f"diff {d['link']}: computed {d['computed']}, expected {d['expected']}"
                )
        else:
            lines.append("diff: none")
    return "\n".join(lines) + "\n"


def cmd_batch(args):
    quandle = _resolve_quandle(args.quandle)
    form = _resolve_form(args, quandle)
    paths = catalog.link_paths()
    names = list(paths)
    if args.links is not None:
        wanted = [s.strip() for s in args.links.split(",") if s.strip()]
        if not wanted:
            raise InputError(f"--links {args.links!r} names no link")
        unknown = [w for w in wanted if w not in names]
        if unknown:
            raise InputError(f"unknown catalog links: {', '.join(unknown)}")
        names = [n for n in names if n in wanted]
    expected = (
        catalog.expected_table(args.form) if not os.path.isfile(args.form) else None
    )

    start = time.monotonic()
    polynomials = {}
    results = []
    for name in names:
        result = compute_invariant(load_diagram(paths[name]), quandle, form, engine=args.engine)
        polynomials[name] = result.polynomial
        record = result.record()
        record["link"] = name
        results.append(record)

    groups = []
    group_index = {}
    for name, poly in polynomials.items():
        text = poly.render()
        if text not in group_index:
            group_index[text] = len(groups)
            groups.append([text, []])
        groups[group_index[text]][1].append(name)

    diffs = None
    if expected is not None:
        diffs = []
        for name, got in polynomials.items():
            want = expected.get(name)
            if want is None:
                continue
            if got != want:
                diffs.append(
                    {"link": name, "computed": got.render(), "expected": want.render()}
                )

    record = {
        "quandle": args.quandle,
        "form": args.form,
        "engine": args.engine,
        "links": names,
        "results": results,
        "groups": groups,
        "diffs": diffs,
        "elapsed": time.monotonic() - start,
    }
    _emit(args, record, render_batch)
    return 1 if diffs else 0


def render_catalog_list(record):
    return (
        "links: " + " ".join(record["links"]) + "\n"
        "quandles: " + " ".join(record["quandles"]) + "\n"
        "forms: " + " ".join(record["forms"]) + "\n"
    )


def cmd_catalog_list(args):
    record = {
        "links": catalog.list_links(),
        "quandles": catalog.list_quandles(),
        "forms": catalog.list_forms(),
    }
    _emit(args, record, render_catalog_list)
    return 0


# -- argument parsing -------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing does not
    change it, and each call of main gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qbeads",
        description="Quandle counting invariants and bead-coloring enhancements.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("quandle-check", help="validate a quandle file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_quandle_check)

    p = sub.add_parser("form-check", help="validate a form against a quandle")
    p.add_argument("quandle", help="catalog id or file path")
    p.add_argument("form", help="catalog id or file path")
    add_format(p)
    p.set_defaults(func=cmd_form_check)

    p = sub.add_parser("form-search", help="search all valid forms on a quandle")
    p.add_argument("quandle", help="catalog id or file path")
    p.add_argument("--p", type=int, required=True, help="field order (prime)")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument(
        "--mode",
        choices=MODES,
        default="all",
        help="alternating-only is a synonym of all, as axiom (i) makes every "
        "diagonal block alternating and (iii) makes B[x][y] 0 or B[y][y]; "
        "constant-diagonal also sets every diagonal block equal",
    )
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.add_argument("--allow-large", action="store_true", help="search past 10^9 leaves")
    add_format(p)
    p.set_defaults(func=cmd_form_search)

    p = sub.add_parser("invariant", help="compute the invariant of one link")
    p.add_argument("--link", required=True, help="catalog name or diagram file")
    p.add_argument("--quandle", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--engine", choices=ENGINES, default="propagate")
    add_format(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("batch", help="compute invariants across the catalog")
    p.add_argument("--quandle", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--links", default=None, help="comma-separated subset")
    p.add_argument("--engine", choices=ENGINES, default="propagate")
    add_format(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("catalog-list", help="list shipped links, quandles, forms")
    add_format(p)
    p.set_defaults(func=cmd_catalog_list)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AxiomError as e:
        print(f"axiom failure: {e}", file=sys.stderr)
        for v in e.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    except QBeadsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
