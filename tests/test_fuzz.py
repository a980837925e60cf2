"""The parsers on arbitrary input: only InputError or AxiomError may come
out, and a diagram they accept is a valid one.

Texts are valid files of each format with a few lines or tokens
replaced, inserted, deleted or repeated, so they reach past the header
checks into the body of every parser.  PD codes use every label twice,
as a real code does, so most get through the edge count to the
orientation and the arc numbering.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from qbeads import catalog
from qbeads.diagram import format_diagram, import_pd, parse_diagram, validate_diagram
from qbeads.errors import AxiomError, InputError
from qbeads.forms import constant_form, format_form, parse_form
from qbeads.quandle import format_quandle, parse_quandle, trivial_quandle

DATA = Path(__file__).parent / "data"

SWAP3 = catalog.load_quandle("swap3")
QUANDLES = [trivial_quandle(1), trivial_quandle(2), SWAP3]

SEEDS = (
    [format_quandle(q) for q in QUANDLES]
    + [
        format_form(catalog.load_form("swap3-full")),
        format_form(constant_form(trivial_quandle(2), 3, 2, [[0, 1], [2, 0]])),
        format_form(constant_form(trivial_quandle(1), 2, 1, [[0]])),
    ]
    + [format_diagram(catalog.link_diagram("L2a1"))]
    + [(DATA / name).read_text(encoding="utf-8") for name in ("trefoil.diagram", "unknot.diagram")]
    + [
        'link h\npd "X[1,4,2,3] X[2,3,1,4]" signs +-\n',
        'link t\n# k: v\npd "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"\n',
    ]
)

TOKENS = (
    st.integers(-1, 5).map(str)
    | st.sampled_from(
        ["+", "-", "quandle", "form", "B", "link", "arcs", "x", "component", "pd", "signs",
         "#", '"', "\\", '"X[1,2,2,1]"', "X[1,2,3,4]", "++"]
    )
    | st.text(max_size=2)
)

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def texts(draw):
    """A seed file with up to three edits, each replacing or inserting a
    token, or deleting or repeating a line."""
    lines = [line.split(" ") for line in draw(st.sampled_from(SEEDS)).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, list(lines[i]))
        else:
            j = draw(st.integers(0, len(lines[i]) - (edit == "replace")))
            lines[i][j : j + (edit == "replace")] = [draw(TOKENS)]
    return "\n".join(" ".join(line) for line in lines)


@st.composite
def pd_codes(draw):
    """(pd text, signs): 1 to 6 crossings over labels that each appear
    twice, sometimes with one label replaced, and a sign list that is
    absent, of the right length, or arbitrary."""
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations(list(range(1, 2 * n + 1)) * 2))
    if draw(st.booleans()):
        labels[draw(st.integers(0, 4 * n - 1))] = draw(st.integers(0, 2 * n + 1))
    pd = " ".join("X[%d,%d,%d,%d]" % tuple(labels[i : i + 4]) for i in range(0, 4 * n, 4))
    signs = draw(
        st.none() | st.text("+-", min_size=n, max_size=n) | st.text("+-, x1", max_size=8)
    )
    return pd, signs


def outcome(parse, *args):
    """What parse returns, or None when it raises InputError or
    AxiomError; any other exception fails the test."""
    try:
        return parse(*args)
    except (InputError, AxiomError):
        return None


@FUZZ
@given(texts())
def test_parsers_raise_only_their_errors(text):
    outcome(parse_quandle, text)
    for quandle in QUANDLES:
        outcome(parse_form, text, quandle)
    diagram = outcome(parse_diagram, text)
    if diagram is not None:
        assert validate_diagram(diagram) == []


@FUZZ
@given(pd_codes())
def test_import_pd_raises_only_input_errors_and_builds_valid_diagrams(code):
    pd, signs = code
    try:
        diagram = import_pd(pd, signs=signs)
    except InputError as e:
        # a code import_pd accepts yields a diagram the validator passes
        assert not str(e).startswith("invalid diagram"), (pd, signs, str(e))
        return
    assert validate_diagram(diagram) == []
