import hashlib
import importlib.util
import random
import shlex
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qbeads import catalog
from qbeads.diagram import (
    _PLAIN_LINE,
    Crossing,
    LinkDiagram,
    _tokens,
    compile_structure,
    format_diagram,
    import_pd,
    load_diagram,
    parse_diagram,
    validate_diagram,
)
from qbeads.errors import InputError

from diagram_ops import canonical_key

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent
SHIPPED_DIAGRAM_DIRS = [
    ROOT / "src" / "qbeads" / "catalog" / "links",
    ROOT / "perfbench" / "data" / "catalog" / "links",
    ROOT / "perfbench" / "data" / "diagrams",
]

HOPF = LinkDiagram(
    "hopf", 2, [Crossing(1, 0, 1, 0), Crossing(1, 1, 0, 1)], [[0], [1]]
)


def test_fixture_files_validate():
    for path in sorted(DATA.glob("*.diagram")):
        d = load_diagram(path)
        assert validate_diagram(d) == [], path.name


def test_parse_format_round_trip():
    texts = [(DATA / f"{name}.diagram").read_text() for name in ["trefoil", "hopf-r2", "unknot"]]
    texts += [
        (catalog.catalog_root() / "links" / f"{name}.diagram").read_text()
        for name in catalog.list_links()
    ]
    for text in texts:
        d = parse_diagram(text)
        again = parse_diagram(format_diagram(d))
        assert canonical_key(again) == canonical_key(d)
        assert again.name == d.name
        assert again.meta == d.meta


_SEPARATOR = st.text(" \t", min_size=1, max_size=3)
_TOKEN = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["+", "-", "L7n2", "trefoil-r2", "a_b", "x#1", "[2]"]),
)


@given(
    key=st.sampled_from(["link", "arcs", "x", "component"]),
    tokens=st.lists(_TOKEN, max_size=5),
    data=st.data(),
)
def test_plain_lines_split_like_shlex(key, tokens, data):
    line = data.draw(st.text(" \t", max_size=2)) + key
    for token in tokens:
        line += data.draw(_SEPARATOR) + token
    line += data.draw(st.text(" \t", max_size=2))
    assert _PLAIN_LINE.fullmatch(line)
    assert _tokens(line) == shlex.split(line)


def test_quoted_and_unusual_lines_go_through_shlex():
    for line in ['link "two words"', "link 'a b'", r"link a\ b", "link \x1f", "link \u00e9"]:
        assert not _PLAIN_LINE.fullmatch(line)
        assert _tokens(line) == shlex.split(line)
    d = parse_diagram(
        'link "two words"\narcs 2\nx + 1 2 1\nx + 2 1 2\ncomponent 1\ncomponent 2\n'
    )
    assert d.name == "two words"
    pd = parse_diagram('link pdhopf\npd "X[1,4,2,3] X[2,3,1,4]" signs +-\n')
    assert pd.name == "pdhopf"
    assert [c.sign for c in pd.crossings] == [1, -1]
    with pytest.raises(InputError, match="line 1: No closing quotation"):
        parse_diagram('link "open\n')


def test_validate_catches_structural_problems():
    # arc out of range
    bad = LinkDiagram("b", 1, [Crossing(1, 0, 1, 0)], [[0]])
    assert validate_diagram(bad)
    # component list does not cover all arcs
    bad = LinkDiagram("b", 2, [], [[0]])
    assert validate_diagram(bad)
    # arc is under_in twice
    bad = LinkDiagram(
        "b",
        2,
        [Crossing(1, 0, 1, 0), Crossing(1, 0, 1, 1)],
        [[0], [1]],
    )
    assert validate_diagram(bad)
    # free loop mixed into a larger component
    bad = LinkDiagram("b", 2, [Crossing(1, 0, 0, 0)], [[0, 1]])
    assert validate_diagram(bad)
    # component cycle order disagrees with the under successor
    tref = parse_diagram((DATA / "trefoil.diagram").read_text())
    bad = LinkDiagram("b", 3, tref.crossings, [[0, 1, 2]])
    assert validate_diagram(bad)


def test_arcs_outside_every_component_are_one_problem():
    bad = LinkDiagram("b", 6, [], [[0], [2]])
    assert validate_diagram(bad) == [
        "4 of the 6 arcs belong to no component (the components list 2): arcs 1, 3, 4, ..."
    ]
    bad = LinkDiagram("b", 3, [], [[0]])
    assert validate_diagram(bad) == [
        "2 of the 3 arcs belong to no component (the components list 1): arcs 1, 2"
    ]
    # an arc count of 10^11 is reported without listing what is missing
    with pytest.raises(InputError, match="99999999998 of the 99999999999 arcs") as e:
        parse_diagram("link a\narcs 99999999999\ncomponent 1\n")
    assert len(str(e.value)) < 200


# (text, the exact message of the InputError that parse_diagram raises):
# every error path of parse_diagram and validate_diagram, and those of
# import_pd that a pd line reaches
_H = "link a\n"
PARSE_ERRORS = [
    ('link "open\n', "line 1: No closing quotation"),
    ("# only: a comment\n\n", "empty diagram file"),
    ("arcs 2\n", "missing 'link <name>' line"),
    ("link\narcs 1\n", "line 1: expected 'link <name>'"),
    ("link a b\n", "line 1: expected 'link <name>'"),
    (_H + "arcs\n", "line 2: expected 'arcs <count>'"),
    (_H + "arcs two\n", "line 2: arc count 'two' is not an integer"),
    (_H + "arcs 1\nx + 1 1\ncomponent 1\n", "line 3: expected 'x <sign> <under_in> <over> <under_out>'"),
    (_H + "arcs 1\nx ? 1 1 1\ncomponent 1\n", "line 3: sign must be + or -, got '?'"),
    (_H + "arcs 1\nx + 1 one 1\ncomponent 1\n", "line 3: crossing arcs must be integers"),
    (_H + "arcs 1\nx - 1 0 1\ncomponent 1\n", "line 3: arcs are 1-based, got [1, 0, 1]"),
    (_H + "arcs 1\nx + 1 1 -2\ncomponent 1\n", "line 3: arcs are 1-based, got [1, 1, -2]"),
    (_H + "arcs 1\ncomponent\n", "line 3: component line lists at least one arc"),
    (_H + "arcs 1\ncomponent 1 b\n", "line 3: component arcs must be integers"),
    (_H + "arcs 2\ncomponent 0 2\n", "line 3: arcs are 1-based, got [0, 2]"),
    (_H + "pd\n", "line 2: expected 'pd \"<code>\" [signs <+->]'"),
    (_H + 'pd "X[1,2,2,1]" sign +\n', "line 2: expected 'pd \"<code>\" [signs <+->]'"),
    (_H + 'pd "X[1,2,2,1]" signs\n', "line 2: expected 'pd \"<code>\" [signs <+->]'"),
    (_H + "knot 3\n", "line 2: unrecognized line 'knot 3'"),
    (_H + 'pd "X[1,2,2,1]"\nx + 1 1 1\n', "a pd line cannot be mixed with x/component lines"),
    (_H + 'component 1\npd "X[1,2,2,1]"\n', "a pd line cannot be mixed with x/component lines"),
    (_H + "link b\narcs 1\ncomponent 1\n", "line 2: repeated 'link' line, first on line 1"),
    (_H + "arcs 1\ncomponent 1\narcs 2\n", "line 4: repeated 'arcs' line, first on line 2"),
    (_H + 'pd "X[1,2,2,1]"\n# c\npd "X[1,2,2,1]"\n', "line 4: repeated 'pd' line, first on line 2"),
    (_H + 'arcs 3\npd "X[1,2,2,1]"\n', "line 3: a pd line cannot be mixed with an arcs line"),
    (_H + 'pd "X[1,2,2,1]"\narcs 1\n', "line 3: a pd line cannot be mixed with an arcs line"),
    (_H + "component 1\n", "missing 'arcs <count>' line"),
    (_H + "arcs 1\n", "missing component lines"),
    # validate_diagram, in the order it checks
    (_H + "arcs 0\ncomponent 1\n", "invalid diagram 'a': diagram has no arcs"),
    (
        _H + "arcs 2\nx + 3 1 2\nx + 1 2 1\ncomponent 1 2\n",
        "invalid diagram 'a': crossing 0: under_in arc 2 out of range 0..1",
    ),
    (
        _H + "arcs 2\nx + 1 4 2\nx + 2 1 5\ncomponent 1 2\n",
        "invalid diagram 'a': crossing 0: over arc 3 out of range 0..1; "
        "crossing 1: under_out arc 4 out of range 0..1",
    ),
    (_H + "arcs 2\ncomponent 1 3\ncomponent 2\n", "invalid diagram 'a': component 0: arc 2 out of range"),
    (_H + "arcs 2\ncomponent 1 2 2\n", "invalid diagram 'a': arc 1 appears in components 0 and 0"),
    (_H + "arcs 2\ncomponent 1\ncomponent 2 1\n", "invalid diagram 'a': arc 0 appears in components 0 and 1"),
    (
        _H + "arcs 6\ncomponent 1\ncomponent 3\n",
        "invalid diagram 'a': 4 of the 6 arcs belong to no component "
        "(the components list 2): arcs 1, 3, 4, ...",
    ),
    (
        _H + "arcs 2\nx + 1 2 1\nx + 1 2 2\ncomponent 1\ncomponent 2\n",
        "invalid diagram 'a': arc 0 is under_in at crossings 0 and 1",
    ),
    (
        _H + "arcs 2\nx + 1 2 1\nx + 2 1 1\ncomponent 1\ncomponent 2\n",
        "invalid diagram 'a': arc 0 is under_out at crossings 0 and 1",
    ),
    (
        _H + "arcs 2\ncomponent 1 2\n",
        "invalid diagram 'a': component 0 has 2 arcs but no underpass; "
        "a free loop must be a single closed arc",
    ),
    (
        _H + "arcs 2\nx + 2 1 1\ncomponent 1\ncomponent 2\n",
        "invalid diagram 'a': arc 0 is under_out of a crossing but never under_in; "
        "component 1: under_in 1 leads to under_out 0, but the component order expects 1",
    ),
    (
        _H + "arcs 2\nx + 1 1 2\ncomponent 1 2\n",
        "invalid diagram 'a': component 0: arc 1 has no crossing with under_in = 1",
    ),
    (
        _H + "arcs 3\nx + 1 3 2\nx + 2 1 3\nx + 3 2 1\ncomponent 1 3 2\n",
        "invalid diagram 'a': "
        "component 0: under_in 0 leads to under_out 1, but the component order expects 2; "
        "component 0: under_in 2 leads to under_out 0, but the component order expects 1; "
        "component 0: under_in 1 leads to under_out 2, but the component order expects 0",
    ),
    # import_pd, through a pd line
    (_H + 'pd "Y[1,2,2,1]"\n', "no X[a,b,c,d] crossings found in 'Y[1,2,2,1]'"),
    (_H + 'pd "X[1,2,2,1] junk"\n', "unrecognized PD content: 'junk'"),
    (_H + 'pd "X[1,2,2,1]" signs +x\n', "sign list '+x' may only contain + and -"),
    (_H + 'pd "X[1,2,2,1]" signs +-\n', "sign list has 2 entries for 1 crossings"),
    (_H + 'pd "X[1,2,2,3]"\n', "edge 1 appears 1 times in the PD code, expected 2"),
    (_H + 'pd "X[1,2,3,4] X[1,4,3,2]"\n', "inconsistent strand orientation at crossing 1 (edge 3)"),
    (
        _H + 'pd "X[1,3,2,4] X[2,4,1,3]"\n',
        "over-strand direction at crossing(s) 1, 2 cannot be inferred from the PD code; "
        "supply an explicit sign list",
    ),
]


def test_parse_rejects_malformed_input():
    wrong = []
    for text, message in PARSE_ERRORS:
        with pytest.raises(InputError) as e:
            parse_diagram(text)
        if str(e.value) != message:
            wrong.append((text, str(e.value), message))
    assert wrong == []
    # a component line lists at least one arc, so only a diagram built
    # in code can hold an empty component
    assert validate_diagram(LinkDiagram("b", 1, [], [[]])) == [
        "component 0 is empty",
        "1 of the 1 arcs belong to no component (the components list 0): arcs 0",
    ]


def test_crossing_is_a_named_tuple_with_a_checked_sign():
    assert Crossing._fields == ("sign", "under_in", "over", "under_out")
    c = Crossing(-1, 0, 2, 1)
    assert (c.sign, c.under_in, c.over, c.under_out) == (-1, 0, 2, 1)
    assert c == (-1, 0, 2, 1)
    assert hash(c) == hash((-1, 0, 2, 1))
    assert Crossing(sign=1, under_in=0, over=2, under_out=1) == (1, 0, 2, 1)
    for sign in (0, 2, "+", None):
        with pytest.raises(InputError) as e:
            Crossing(sign, 0, 1, 0)
        assert str(e.value) == f"crossing sign must be +1 or -1, got {sign!r}"
    with pytest.raises(AttributeError):
        c.sign = 1
    with pytest.raises(AttributeError):
        c.label = "a"
    assert c == (-1, 0, 2, 1)
    assert c._replace(sign=1) == Crossing._make((1, 0, 2, 1))
    for made in (lambda: c._replace(sign=0), lambda: Crossing._make((0, 0, 2, 1))):
        with pytest.raises(InputError, match="got 0"):
            made()


def test_diagrams_from_plain_tuples_share_the_structure():
    compile_structure.cache_clear()
    crossings = [(1, 0, 1, 0), (1, 1, 0, 1)]
    plain = LinkDiagram("plain", 2, crossings, [[0], [1]])
    named = LinkDiagram("named", 2, [Crossing(*c) for c in crossings], [[0], [1]])
    assert all(type(c) is Crossing for c in plain.crossings)
    assert plain.crossings == named.crossings == tuple(crossings)
    assert plain.plan is named.plan
    assert plain.kernel is named.kernel
    assert compile_structure.cache_info().misses == 1


# -- PD import ---------------------------------------------------------


def test_import_pd_hopf_with_signs():
    d = import_pd("X[4,1,3,2] X[2,3,1,4]", signs="++", name="hopf")
    assert len(d.crossings) == 2
    assert len(d.components) == 2
    assert all(c.sign == 1 for c in d.crossings)
    assert canonical_key(d) == canonical_key(HOPF)


def test_import_pd_infers_signs_when_unambiguous():
    d = import_pd("X[4,1,3,2] X[2,3,1,4]")
    assert sorted(c.sign for c in d.crossings) == [-1, -1]
    assert d.meta["pd"].startswith("X[")


def test_import_pd_kink():
    d = import_pd("X[1,2,2,1]")
    assert len(d.crossings) == 1
    assert d.arc_count == 1
    assert len(d.components) == 1


def test_import_pd_trefoil():
    d = import_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    assert d.arc_count == 3
    assert len(d.components) == 1
    assert validate_diagram(d) == []


def test_import_pd_paren_and_space_forms():
    a = import_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    b = import_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    c = import_pd("X[1 4 2 5] X[3 6 4 1] X[5 2 6 3]")
    assert canonical_key(a) == canonical_key(b) == canonical_key(c)


def test_import_pd_ambiguous_orientation_needs_signs():
    # one circle lying entirely under another leaves the over strand's
    # direction undetermined
    pd = "X[1,4,2,3] X[2,3,1,4]"
    with pytest.raises(InputError) as e:
        import_pd(pd)
    assert "sign" in str(e.value).lower()
    d = import_pd(pd, signs="+-")
    assert validate_diagram(d) == []
    assert [c.sign for c in d.crossings] == [1, -1]


def test_import_pd_signs_override():
    natural = import_pd("X[4,1,3,2] X[2,3,1,4]")
    flipped = import_pd("X[4,1,3,2] X[2,3,1,4]", signs="++")
    assert sorted(c.sign for c in natural.crossings) == [-1, -1]
    assert sorted(c.sign for c in flipped.crossings) == [1, 1]


def test_import_pd_rejects_bad_edge_multiplicity():
    with pytest.raises(InputError):
        import_pd("X[1,2,3,4]")
    with pytest.raises(InputError):
        import_pd("X[1,1,1,1] X[1,2,2,2]")


def test_import_pd_catalog_round_trip():
    # every shipped diagram that records its source PD was written from
    # import_pd's output, so re-importing the PD must give the same arc
    # count, crossings in order and components in order
    shipped = [
        path
        for root in SHIPPED_DIAGRAM_DIRS
        for path in sorted(root.glob("*.diagram"))
        if "\n# pd:" in "\n" + path.read_text(encoding="utf-8")
    ]
    assert len(shipped) == 46
    for path in shipped:
        d = load_diagram(path)
        again = import_pd(d.meta["pd"], signs=d.meta.get("pd-signs"))
        assert again.arc_count == d.arc_count, path
        assert again.crossings == d.crossings, path
        assert again.components == d.components, path
        assert again.meta["pd"] == d.meta["pd"], path


def _gen_catalog():
    spec = importlib.util.spec_from_file_location("gen_catalog", ROOT / "tools" / "gen_catalog.py")
    gen_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_catalog)
    return gen_catalog


def pd_corpus(rng):
    """(pd, signs) pairs: the PD codes and natural signs of tools/
    gen_catalog.py braid closures of 2 to 7 strands, pretzels and
    rationals, then random codes of 1 to 5 crossings in which every
    label appears twice, half of them with a random sign list."""
    gen = _gen_catalog()
    twists = (-3, -2, -1, 1, 2, 3)
    for _ in range(60):
        strands = rng.randint(2, 7)
        word = [k * rng.choice((1, -1)) for k in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 6))]
        rng.shuffle(word)
        yield gen.braid_closure(strands, word).pd_string()
    for _ in range(20):
        yield gen.pretzel_link([rng.choice(twists) for _ in range(rng.randint(2, 4))]).pd_string()
    for _ in range(20):
        yield gen.rational_link([rng.choice(twists) for _ in range(rng.randint(1, 4))]).pd_string()
    for _ in range(3000):
        n = rng.randint(1, 5)
        labels = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(labels)
        pd = " ".join("X[%d,%d,%d,%d]" % tuple(labels[i : i + 4]) for i in range(0, 4 * n, 4))
        yield pd, "".join(rng.choice("+-") for _ in range(n)) if rng.random() < 0.5 else None


def test_import_pd_outputs_are_pinned():
    # the diagram text, or the exact error message, of every code of a
    # seeded corpus: arc numbering, crossing and component order, signs
    # and meta all reach the shipped files that import_pd writes
    digest = hashlib.sha256()
    imported = 0
    for pd, signs in pd_corpus(random.Random(31)):
        try:
            text = format_diagram(import_pd(pd, signs=signs))
            imported += 1
        except InputError as e:
            text = f"InputError: {e}\n"
        digest.update(text.encode())
    assert imported == 1331
    assert digest.hexdigest() == "189818150955ea378231e7015daa5059c62e38a19514a3344d3fe04cf49175be"


def test_canonical_key_ignores_labelling_order():
    d1 = parse_diagram(
        "link a\narcs 2\nx + 1 2 1\nx + 2 1 2\ncomponent 1\ncomponent 2\n"
    )
    d2 = parse_diagram(
        "link b\narcs 2\nx + 2 1 2\nx + 1 2 1\ncomponent 2\ncomponent 1\n"
    )
    assert canonical_key(d1) == canonical_key(d2)
    assert hash(canonical_key(d1)) == hash(canonical_key(d2))
