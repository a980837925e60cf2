"""Reading and writing the benchmark's input files.

Loads go through qbeads' own file loaders, looked up on their modules
at call time, so the tracer sees them.  The raw form reader and writer
exist because mutated forms fail validation and relabelled forms must
be written before any quandle exists to validate them against.
"""

import qbeads.diagram
import qbeads.forms
import qbeads.quandle


def parse_quandle_text(text, name):
    return qbeads.quandle.parse_quandle(text, name=name)


def load_quandle(data, qid):
    return qbeads.quandle.load_quandle(data / "quandles" / f"{qid}.quandle", name=qid)


def form_path(data, fid):
    return data / "forms" / f"{fid}.form"


def load_form(data, fid, quandle):
    return qbeads.forms.load_form(form_path(data, fid), quandle, name=fid)


def load_diagram(data, did):
    return qbeads.diagram.load_diagram(data / "diagrams" / f"{did}.diagram").validate()


def parse_form_blocks(text):
    """(m, n, p, blocks) from form file text, without validation."""
    lines = [
        line.split()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    m, n, p = (int(t) for t in lines[0][1:])
    blocks = [[None] * m for _ in range(m)]
    i = 1
    while i < len(lines):
        x, y = int(lines[i][1]) - 1, int(lines[i][2]) - 1
        blocks[x][y] = tuple(tuple(int(e) for e in row) for row in lines[i + 1 : i + 1 + n])
        i += 1 + n
    return m, n, p, blocks


def format_form_blocks(m, n, p, blocks):
    out = [f"form {m} {n} {p}"]
    for x in range(m):
        for y in range(m):
            out.append(f"B {x + 1} {y + 1}")
            out += [" ".join(str(e) for e in row) for row in blocks[x][y]]
    return "\n".join(out) + "\n"


def read_form_blocks(data, fid):
    return parse_form_blocks(form_path(data, fid).read_text(encoding="utf-8"))


def canonical_form_text(text):
    return format_form_blocks(*parse_form_blocks(text))
