"""Write the benchmark's frozen inputs and expected outputs under data/.

Run once from the repository root:

    python3 perfbench/freeze.py

Diagrams come from the builders in tools/gen_catalog.py fed through
qbeads.diagram.import_pd; quandles and forms from qbeads' constructors;
the catalog is copied from src/qbeads/catalog.  Every file records its
construction in header comments.  Expected outputs are computed here
and cross-checked: ladder polynomials with engine="both" where that is
quick and by agreement across two relabelling seeds, search results
with verify_search_output.  run.py only reads what this writes.
"""

import itertools
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import gen_catalog  # noqa: E402
from qbeads.diagram import format_diagram, import_pd  # noqa: E402
from qbeads.field import PrimeField  # noqa: E402
from qbeads.forms import form_violations, format_form, validate_form  # noqa: E402
from qbeads.invariant import compute_invariant  # noqa: E402
from qbeads.quandle import (  # noqa: E402
    alexander_quandle,
    conjugation_quandle,
    format_quandle,
    symplectic_quandle,
)
from qbeads.search import run_search, verify_search_output  # noqa: E402

import inputs  # noqa: E402
import loaders  # noqa: E402
from relabel import relabel_diagram, rng_for  # noqa: E402

# ladder items whose engine="both" cross-check takes longer than this
# (estimated from the propagate time) rely on the two-seed check alone
BOTH_LIMIT_S = 0.5


def s3_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(3))] for b in perms] for a in perms]


def build_quandle(qid):
    if qid == "swap3":
        text = (ROOT / "src/qbeads/catalog/quandles/swap3.quandle").read_text()
        return loaders.parse_quandle_text(text, qid)
    if qid == "symp22":
        return symplectic_quandle(2, 2, [[0, 1], [1, 0]], name=qid)
    if qid == "alex52":
        return alexander_quandle(5, 2, name=qid)
    if qid == "alex43":
        return alexander_quandle(4, 3, name=qid)
    if qid == "conjS3":
        return conjugation_quandle(s3_table(), name=qid)
    raise KeyError(qid)


def header(lines):
    return "".join(f"# {line}\n" for line in lines)


def write_inputs(data):
    for sub in ("diagrams", "quandles", "forms", "expected"):
        (data / sub).mkdir(parents=True, exist_ok=True)

    for did, (construction, description) in inputs.LADDER_DIAGRAMS.items():
        # evaluated, so the header records exactly the call that built it
        builder = eval(construction, vars(gen_catalog))
        pd, signs = builder.pd_string()
        diagram = import_pd(pd, signs=signs, name=did).validate()
        diagram.meta["construction"] = (
            f"tools/gen_catalog.py {construction}, then qbeads.diagram.import_pd"
        )
        diagram.meta["description"] = description
        (data / "diagrams" / f"{did}.diagram").write_text(format_diagram(diagram))

    quandles = {}
    for qid, (construction, description) in inputs.QUANDLES.items():
        q = build_quandle(qid)
        quandles[qid] = q
        (data / "quandles" / f"{qid}.quandle").write_text(
            header([f"construction: {construction}", description]) + format_quandle(q)
        )

    forms = {}
    for fid, (qid, p, n, B) in inputs.CONSTANT_FORMS.items():
        form = validate_form(
            quandles[qid], [[B] * quandles[qid].order] * quandles[qid].order, p, n, fid
        )
        forms[fid] = form
        text = header(
            [
                f"quandle: {qid}",
                f"construction: qbeads.forms.constant_form(quandle, {p}, {n}, {list(map(list, B))})",
                "constant alternating family, valid on every quandle",
            ]
        ) + format_form(form)
        (data / "forms" / f"{fid}.form").write_text(text)
    shutil.copy(
        ROOT / "src/qbeads/catalog/forms/swap3-partial.form",
        data / "forms" / "swap3-partial.form",
    )

    for fid, (base, (x, y), (i, j)) in inputs.MUTANTS.items():
        form = forms[base]
        p = form.field.p
        blocks = [[[list(r) for r in B] for B in row] for row in form.blocks]
        blocks[x][y][i][j] = (blocks[x][y][i][j] + 1) % p
        m = len(blocks)
        body = [f"form {m} {form.n} {p}"]
        for bx in range(m):
            for by in range(m):
                body.append(f"B {bx + 1} {by + 1}")
                body += [" ".join(map(str, r)) for r in blocks[bx][by]]
        text = header(
            [
                f"quandle: {inputs.form_quandle(fid)}",
                f"construction: {base} with entry ({i + 1},{j + 1}) of block "
                f"({x + 1},{y + 1}) raised by 1 mod {p} (1-based)",
                "single-entry mutation; fails the axioms",
            ]
        ) + "\n".join(body) + "\n"
        (data / "forms" / f"{fid}.form").write_text(text)

    catalog = data / "catalog"
    if catalog.exists():
        shutil.rmtree(catalog)
    shutil.copytree(
        ROOT / "src/qbeads/catalog",
        catalog,
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def freeze_ladder(data):
    quandles = {q: loaders.load_quandle(data, q) for q, _ in inputs.LADDER_PAIRS}
    forms = {f: loaders.load_form(data, f, quandles[q]) for q, f in inputs.LADDER_PAIRS}
    expected = {}
    for did, qid, fid in inputs.ladder_items():
        base = loaders.load_diagram(data, did)
        polys = []
        start = time.perf_counter()
        for seed in (1, 2):
            d = relabel_diagram(base, rng_for(seed, "freeze", did))
            polys.append(compute_invariant(d, quandles[qid], forms[fid]).polynomial)
        took = (time.perf_counter() - start) / 2
        if polys[0] != polys[1]:
            raise SystemExit(f"{did} {fid}: seeds disagree: {polys[0]} vs {polys[1]}")
        checked = "two seeds"
        if took < BOTH_LIMIT_S:
            both = compute_invariant(base, quandles[qid], forms[fid], engine="both")
            if both.polynomial != polys[0]:
                raise SystemExit(f"{did} {fid}: engine=both gives {both.polynomial}")
            checked = "two seeds, engine=both"
        expected[f"{did}|{fid}"] = {
            "terms": polys[0].term_list(),
            "polynomial": polys[0].render(),
            "checked": checked,
        }
        print(f"ladder {did:9s} {fid:14s} {took:6.3f}s {checked:22s} {polys[0]}")
    return expected


def freeze_validate(data):
    expected = {}
    for fid in inputs.VALIDATE_FORMS:
        q = loaders.load_quandle(data, inputs.form_quandle(fid))
        m, n, p, blocks = loaders.read_form_blocks(data, fid)
        violations = form_violations(q, blocks, PrimeField(p), n)
        if bool(violations) != (fid in inputs.MUTANTS):
            raise SystemExit(f"{fid}: expected {'in' if fid in inputs.MUTANTS else ''}valid")
        expected[fid] = {"valid": not violations, "exit_code": 1 if violations else 0}
        print(f"validate {fid:14s} valid={not violations}")
    return expected


def freeze_search(data):
    expected = {}
    for sid, (qid, p, n, mode) in inputs.SEARCHES.items():
        q = loaders.load_quandle(data, qid)
        result = run_search(q, p, n, mode=mode, allow_large=True)
        failures = verify_search_output(result)
        if failures or not result.complete:
            raise SystemExit(f"{sid}: complete={result.complete} failures={failures[:1]}")
        expected[sid] = {
            "count": len(result.forms),
            "complete": True,
            "forms": sorted(loaders.canonical_form_text(format_form(f)) for f in result.forms),
            "checked": "verify_search_output found no violation",
        }
        print(f"search {sid:16s} {len(result.forms)} forms, {result.nodes} nodes")
    return expected


def main():
    data = inputs.DATA
    write_inputs(data)
    tables = {
        "ladder": freeze_ladder(data),
        "form-validate": freeze_validate(data),
        "form-search": freeze_search(data),
    }
    for name, table in tables.items():
        (data / "expected" / f"{name}.json").write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n"
        )


if __name__ == "__main__":
    main()
