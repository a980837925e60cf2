"""The four workloads: set-up, the items of one pass, and their checks.

A workload's set-up writes seed-relabelled copies of the frozen inputs
into a work directory and loads them the way a user would, validating
every form it uses.  It builds `variants` relabellings; pass k runs
variant k mod variants, so one run averages over several labellings.
Quandle element ids are relabelled once per run (catalog-batch
relabels them per labelling and runs all its labellings in every pass,
form-search keeps the frozen labels; see those classes), arcs,
crossings and components once per variant.

An item is one call a user makes: one `qbeads batch`, one
compute_invariant, one `qbeads form-check` or one `qbeads form-search`.
Every call looks its target up on the module at call time, so the
tracer's patches apply.  check() compares an item's output with the
frozen expected table and runs outside the timed region.
"""

import contextlib
import io
import json
import os
import shutil

import qbeads.catalog
import qbeads.cli
import qbeads.diagram
import qbeads.invariant
from qbeads.diagram import format_diagram
from qbeads.invariant import InvariantPolynomial
from qbeads.quandle import Quandle, format_quandle

import inputs
import loaders
from relabel import permutation, relabel_blocks, relabel_diagram, relabel_table, rng_for


def run_cli(argv):
    """qbeads' command line in-process: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qbeads.cli.main(argv)
    return code, out.getvalue()


def quandle_path(qid):
    return inputs.DATA / "quandles" / f"{qid}.quandle"


def write_quandle(path, source, perm):
    """Copy of the quandle file `source` with element x renamed perm[x]."""
    table = loaders.parse_quandle_text(source.read_text(), source.stem).table
    path.write_text(
        f"# {source.stem} relabelled by perm {perm}\n"
        + format_quandle(Quandle.from_table(relabel_table(table, perm)))
    )


def write_form(path, source, perm):
    """Copy of the form file `source` with its blocks moved to match
    write_quandle(..., perm); keeps the '# quandle:' header."""
    text = source.read_text()
    m, n, p, blocks = loaders.parse_form_blocks(text)
    header = [line for line in text.splitlines() if line.startswith("# quandle:")]
    path.write_text(
        "".join(line + "\n" for line in header)
        + f"# {source.stem} relabelled by perm {perm}\n"
        + loaders.format_form_blocks(m, n, p, relabel_blocks(blocks, perm))
    )


def write_diagram(path, diagram, rng):
    path.write_text(format_diagram(relabel_diagram(diagram, rng)))


def quandle_perms(seed, qids):
    """One seeded element permutation per quandle, fixed for the run."""
    orders = {q: len(loaders.parse_quandle_text(quandle_path(q).read_text(), q).table) for q in qids}
    return {q: permutation(rng_for(seed, "quandle", q), orders[q]) for q in qids}


class CatalogBatch:
    """`qbeads batch --format json` for both catalog forms over all 18
    links, reading relabelled catalog copies through QBEADS_CATALOG.

    A batch's cost moves by up to 15 % with the labelling alone, so
    every pass runs both forms on each of `labellings` copies, each
    with its own element and arc labels, and a pass time averages over
    them.
    """

    name = "catalog-batch"
    labellings = 8
    variants = 1  # every pass runs every labelling
    min_passes = 7  # 112 items, so the tail is p90

    def setup(self, seed, work):
        source = inputs.DATA / "catalog"
        quandle = source / "quandles" / "swap3.quandle"
        order = len(loaders.parse_quandle_text(quandle.read_text(), "swap3").table)
        self.links = sorted(p.stem for p in (source / "links").glob("*.diagram"))
        bases = {
            link: qbeads.diagram.load_diagram(source / "links" / f"{link}.diagram")
            for link in self.links
        }
        self.roots = []
        for v in range(self.labellings):
            root = work / f"catalog{v}"
            for sub in ("links", "quandles", "forms"):
                (root / sub).mkdir(parents=True)
            shutil.copytree(source / "expected", root / "expected")
            for link, diagram in bases.items():
                write_diagram(root / "links" / f"{link}.diagram", diagram, rng_for(seed, v, link))
            perm = permutation(rng_for(seed, v, "quandle", "swap3"), order)
            write_quandle(root / "quandles" / "swap3.quandle", quandle, perm)
            for path in sorted((source / "forms").glob("*.form")):
                write_form(root / "forms" / path.name, path, perm)
            os.environ[qbeads.catalog.CATALOG_ENV] = str(root)
            for fid in inputs.BATCH_FORMS:
                qbeads.catalog.load_form(fid)
            self.roots.append(str(root))
        self.expected = {
            fid: json.loads((source / "expected" / f"{fid}.json").read_text())["expected"]
            for fid in inputs.BATCH_FORMS
        }

    def items(self, variant):
        def batch(root, fid):
            os.environ[qbeads.catalog.CATALOG_ENV] = root
            return run_cli(["batch", "--quandle", "swap3", "--form", fid, "--format", "json"])

        return [
            (f"{v}/{fid}", lambda root=root, fid=fid: batch(root, fid))
            for v, root in enumerate(self.roots)
            for fid in inputs.BATCH_FORMS
        ]

    def check(self, item, output):
        code, text = output
        record = json.loads(text)
        got = {r["link"]: r["terms"] for r in record["results"]}
        want = self.expected[item.split("/", 1)[1]]
        if code != 0 or record["diffs"] or sorted(got) != self.links:
            return f"exit {code}, diffs {record['diffs']}, links {sorted(got)}"
        bad = [link for link in self.links if got[link] != want[link]]
        return f"terms differ on {bad}" if bad else None


class InvariantLadder:
    """Library compute_invariant, default engine and jobs, over frozen
    diagrams with 6-12 crossings and four quandle and form pairs."""

    name = "invariant-ladder"
    variants = 12  # about one labelling per pass
    min_passes = 7  # 231 items, so the tail is p95

    def setup(self, seed, work):
        pairs = inputs.LADDER_PAIRS
        perms = quandle_perms(seed, sorted({q for q, _ in pairs}))
        for sub in ("quandles", "forms"):
            (work / sub).mkdir(parents=True)
        quandles = {}
        for qid, perm in perms.items():
            write_quandle(work / "quandles" / f"{qid}.quandle", quandle_path(qid), perm)
            quandles[qid] = loaders.load_quandle(work, qid)
        forms = {}
        for qid, fid in pairs:
            write_form(work / "forms" / f"{fid}.form", loaders.form_path(inputs.DATA, fid), perms[qid])
            forms[fid] = loaders.load_form(work, fid, quandles[qid])
        bases = {did: loaders.load_diagram(inputs.DATA, did) for did in inputs.LADDER_DIAGRAMS}
        self.inputs = []
        for v in range(self.variants):
            vdir = work / f"variant{v}"
            (vdir / "diagrams").mkdir(parents=True)
            diagrams = {}
            for did, base in bases.items():
                write_diagram(vdir / "diagrams" / f"{did}.diagram", base, rng_for(seed, v, did))
                diagrams[did] = loaders.load_diagram(vdir, did)
            self.inputs.append(
                [(f"{d}|{f}", diagrams[d], quandles[q], forms[f]) for d, q, f in inputs.ladder_items()]
            )
        table = json.loads((inputs.DATA / "expected" / "ladder.json").read_text())
        self.expected = {
            key: InvariantPolynomial.from_term_list(row["terms"]) for key, row in table.items()
        }

    def items(self, variant):
        return [
            (key, lambda d=d, q=q, f=f: qbeads.invariant.compute_invariant(d, q, f))
            for key, d, q, f in self.inputs[variant]
        ]

    def check(self, item, output):
        if output.polynomial != self.expected[item]:
            return f"computed {output.polynomial}, expected {self.expected[item]}"
        return None


class FormValidate:
    """`qbeads form-check` on constant symplectic forms at p^n = 9 and
    16 and on single-entry mutations of them; only the verdict (exit
    code and the valid flag) is checked."""

    name = "form-validate"
    variants = 1  # the full axiom sweep costs the same under any labelling
    min_passes = 2  # 30 items, so the tail is p50

    def setup(self, seed, work):
        qids = sorted({inputs.form_quandle(f) for f in inputs.VALIDATE_FORMS})
        perms = quandle_perms(seed, qids)
        for sub in ("quandles", "forms"):
            (work / sub).mkdir(parents=True)
        for qid in qids:
            write_quandle(work / "quandles" / f"{qid}.quandle", quandle_path(qid), perms[qid])
            loaders.load_quandle(work, qid)
        for fid in inputs.VALIDATE_FORMS:
            perm = perms[inputs.form_quandle(fid)]
            write_form(work / "forms" / f"{fid}.form", loaders.form_path(inputs.DATA, fid), perm)
        self.work = work
        self.expected = json.loads((inputs.DATA / "expected" / "form-validate.json").read_text())

    def items(self, variant):
        def check_form(fid):
            qpath = self.work / "quandles" / f"{inputs.form_quandle(fid)}.quandle"
            fpath = self.work / "forms" / f"{fid}.form"
            return run_cli(["form-check", str(qpath), str(fpath), "--format", "json"])

        return [(fid, lambda fid=fid: check_form(fid)) for fid in inputs.VALIDATE_FORMS]

    def check(self, item, output):
        code, text = output
        want = self.expected[item]
        valid = json.loads(text)["valid"]
        if code != want["exit_code"] or valid != want["valid"]:
            return f"exit {code}, valid {valid}; expected {want}"
        return None


class FormSearch:
    """`qbeads form-search --allow-large --format json`, no budget, on
    five searches; the count must match, the search must be complete
    and the forms found must equal the frozen verified set.

    The quandles keep their frozen labels: the search's pair order, and
    with it its node count, follows the element ids (swap3 at p=2, n=3
    takes 12168 to 18832 nodes, 1.5-3.8 s, over the six labellings), so
    relabelling would make runs on different seeds incomparable.  The
    seed orders the searches within each pass instead.
    """

    name = "form-search"
    variants = 4
    min_passes = 4  # 20 items, so the tail is p50

    def setup(self, seed, work):
        (work / "quandles").mkdir(parents=True)
        for qid in sorted({spec[0] for spec in inputs.SEARCHES.values()}):
            shutil.copy(quandle_path(qid), work / "quandles")
            loaders.load_quandle(work, qid)
        self.quandles = work / "quandles"
        self.orders = []
        for v in range(self.variants):
            order = list(inputs.SEARCHES)
            rng_for(seed, v, "order").shuffle(order)
            self.orders.append(order)
        self.expected = json.loads((inputs.DATA / "expected" / "form-search.json").read_text())

    def items(self, variant):
        def search(sid):
            qid, p, n, mode = inputs.SEARCHES[sid]
            return run_cli(
                ["form-search", str(self.quandles / f"{qid}.quandle"),
                 "--p", str(p), "--n", str(n), "--mode", mode,
                 "--allow-large", "--format", "json"]
            )

        return [(sid, lambda sid=sid: search(sid)) for sid in self.orders[variant]]

    def check(self, item, output):
        code, text = output
        record = json.loads(text)
        want = self.expected[item]
        if code != 0 or record["count"] != want["count"] or not record["complete"]:
            return f"exit {code}, count {record['count']}, complete {record['complete']}"
        if sorted(loaders.canonical_form_text(t) for t in record["forms"]) != want["forms"]:
            return "the forms found differ from the frozen set"
        return None


WORKLOADS = {w.name: w for w in (CatalogBatch, InvariantLadder, FormValidate, FormSearch)}
