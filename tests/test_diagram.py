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
    format_diagram,
    import_pd,
    load_diagram,
    parse_diagram,
    validate_diagram,
)
from qbeads.errors import InputError

from diagram_ops import canonical_key

DATA = Path(__file__).parent / "data"

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


def test_parse_rejects_malformed_input():
    with pytest.raises(InputError):
        parse_diagram("arcs 2\n")  # missing link header
    with pytest.raises(InputError):
        parse_diagram("link a\narcs 1\nx + 1 1\ncomponent 1\n")
    with pytest.raises(InputError):
        parse_diagram("link a\narcs 1\nx ? 1 1 1\ncomponent 1\n")
    with pytest.raises(InputError):
        parse_diagram("link a\narcs 2\ncomponent 1 2 2\n")


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
    # every catalog diagram carries its source PD; re-importing it must
    # reproduce the stored diagram exactly
    from qbeads import catalog

    for name in catalog.list_links():
        entry = catalog.load(name)
        signs = "".join("+" if c.sign == 1 else "-" for c in entry.diagram.crossings)
        again = import_pd(entry.pd, signs=signs, name=name)
        assert canonical_key(again) == canonical_key(entry.diagram), name


def test_canonical_key_ignores_labelling_order():
    d1 = parse_diagram(
        "link a\narcs 2\nx + 1 2 1\nx + 2 1 2\ncomponent 1\ncomponent 2\n"
    )
    d2 = parse_diagram(
        "link b\narcs 2\nx + 2 1 2\nx + 1 2 1\ncomponent 2\ncomponent 1\n"
    )
    assert canonical_key(d1) == canonical_key(d2)
    assert hash(canonical_key(d1)) == hash(canonical_key(d2))
