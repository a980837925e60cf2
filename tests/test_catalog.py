import os

import pytest

from qbeads import catalog
from qbeads.errors import InputError

ALL_LINKS = [
    "L2a1", "L4a1", "L5a1",
    "L6a1", "L6a2", "L6a3", "L6a4", "L6a5", "L6n1",
    "L7a1", "L7a2", "L7a3", "L7a4", "L7a5", "L7a6", "L7a7", "L7n1", "L7n2",
]


def test_listings():
    assert catalog.list_links() == ALL_LINKS
    assert catalog.list_quandles() == ["swap3"]
    assert catalog.list_forms() == ["swap3-full", "swap3-partial", "swap3-zero"]


def test_quandle_fixture():
    q = catalog.load_quandle("swap3")
    assert q.order == 3
    assert q.table == q.inv_table
    assert q.table == ((0, 0, 1), (1, 1, 0), (2, 2, 2))


def test_form_fixtures():
    S = ((0, 1), (1, 0))
    Z = ((0, 0), (0, 0))
    partial = catalog.load_form("swap3-partial")
    assert partial.blocks == ((S, S, Z), (S, S, Z), (Z, Z, Z))
    full = catalog.load_form("swap3-full")
    assert full.blocks == ((S, S, Z), (S, S, Z), (Z, Z, S))
    zero = catalog.load_form("swap3-zero")
    assert all(B == Z for row in zero.blocks for B in row)


def test_entries_validate_and_carry_pd():
    for name in ALL_LINKS:
        entry = catalog.load(name)
        assert entry.diagram.name == name
        assert entry.pd and entry.pd.startswith("X[")
        assert entry.orientation
        assert len(entry.diagram.crossings) == int(name[1])


def test_component_counts():
    three = {"L6a4", "L6a5", "L6n1", "L7a7"}
    for name in ALL_LINKS:
        entry = catalog.load(name)
        expected = 3 if name in three else 2
        assert len(entry.diagram.components) == expected, name


def test_expected_tables_cover_all_links():
    for form_name in ("swap3-partial", "swap3-full"):
        table = catalog.expected_table(form_name)
        assert sorted(table) == ALL_LINKS
    assert catalog.expected_table("swap3-zero") is None


def test_entry_expected_values():
    e = catalog.load("L2a1")
    assert e.expected["swap3-partial"].render() == "u^16 + 4u^10"
    assert e.expected["swap3-full"].render() == "5u^10"


def test_unknown_names():
    with pytest.raises(InputError) as e:
        catalog.load("L9z9")
    assert str(e.value) == "unknown catalog link 'L9z9'; available: " + ", ".join(ALL_LINKS)
    with pytest.raises(InputError) as e:
        catalog.load_quandle("nope")
    assert str(e.value) == "unknown catalog quandle 'nope'; available: swap3"
    with pytest.raises(InputError) as e:
        catalog.load_form("nope")
    assert str(e.value) == (
        "unknown catalog form 'nope'; available: swap3-full, swap3-partial, swap3-zero"
    )


def test_env_override(tmp_path, monkeypatch):
    (tmp_path / "links").mkdir()
    (tmp_path / "links" / "loop.diagram").write_text(
        "link loop\narcs 1\ncomponent 1\n"
    )
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    assert catalog.list_links() == ["loop"]
    assert catalog.list_forms() == []
    entry = catalog.load("loop")
    assert entry.diagram.arc_count == 1
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path / "missing"))
    with pytest.raises(InputError):
        catalog.list_links()


def test_listing_gives_exactly_the_names_lookup_resolves(tmp_path, monkeypatch):
    """A listed name is a regular file, through symlinks, with a name
    before its suffix; every listed name resolves and no other does."""
    links = tmp_path / "links"
    links.mkdir()
    text = "link loop\narcs 1\ncomponent 1\n"
    (links / "loop.diagram").write_text(text)
    (links / "target.txt").write_text(text)
    (links / "linked.diagram").symlink_to(links / "target.txt")
    (links / "dangling.diagram").symlink_to(links / "missing.txt")
    (links / "zz.diagram").mkdir()
    (links / ".diagram").write_text(text)
    (links / "sub").mkdir()
    (links / "sub" / "x.diagram").write_text(text)
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    assert catalog.list_links() == ["linked", "loop"]
    assert list(catalog.link_paths()) == ["linked", "loop"]
    for name, path in catalog.link_paths().items():
        assert catalog.link_diagram(name).arc_count == 1
        assert os.path.samefile(path, links / f"{name}.diagram")
    for name in ("zz", "dangling", "", ".diagram", "sub/x", "target"):
        with pytest.raises(InputError) as e:
            catalog.link_diagram(name)
        assert str(e.value) == f"unknown catalog link {name!r}; available: linked, loop"
