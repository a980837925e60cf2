"""Shipped fixtures: link diagrams, quandles, forms, and expected values.

Layout (under the package's catalog/ directory, or the directory named
by the QBEADS_CATALOG environment variable):

    catalog/links/<name>.diagram      explicit signed-crossing diagrams
    catalog/quandles/<id>.quandle     operation tables
    catalog/forms/<id>.form           bilinear form families
    catalog/expected/<form-id>.json   expected invariant per link

Each .form file names its quandle in a ``# quandle: <id>`` comment.
Expected files map link name -> term list [[exponent, multiplicity],...].
"""

import json
import os
import re
from dataclasses import dataclass, field as dataclass_field
from importlib import resources
from pathlib import Path

from .diagram import load_diagram
from .errors import InputError, read_text
from .forms import parse_form
from .invariant import InvariantPolynomial
from .quandle import load_quandle as _load_quandle_file

CATALOG_ENV = "QBEADS_CATALOG"
_PACKAGE_CATALOG = Path(resources.files("qbeads")) / "catalog"


def catalog_root():
    """The catalog directory: $QBEADS_CATALOG, read on every call, or
    the package's own."""
    override = os.environ.get(CATALOG_ENV)
    if override:
        root = Path(override)
        if not root.is_dir():
            raise InputError(f"{CATALOG_ENV}={override!r} is not a directory")
        return root
    return _PACKAGE_CATALOG


def _paths(kind):
    """{name: path} of the catalog's files of a kind, link, quandle or
    form, in order of name, from one listing."""
    root = catalog_root() / f"{kind}s"
    if not root.is_dir():
        return {}
    suffix = ".diagram" if kind == "link" else f".{kind}"
    return dict(sorted((p.stem, p) for p in root.glob(f"*{suffix}")))


def _path(kind, name):
    """The path of the named catalog file of a kind, link, quandle or
    form, checked to exist: one stat, and a listing only to name the
    available ones when it does not."""
    suffix = ".diagram" if kind == "link" else f".{kind}"
    path = catalog_root() / f"{kind}s" / f"{name}{suffix}"
    if not path.is_file():
        raise InputError(
            f"unknown catalog {kind} {name!r}; available: {', '.join(_paths(kind))}"
        )
    return path


def link_paths():
    """{name: path} of every catalog link, in list_links order."""
    return _paths("link")


def list_links():
    return list(_paths("link"))


def list_quandles():
    return list(_paths("quandle"))


def list_forms():
    return list(_paths("form"))


def load_quandle(name):
    return _load_quandle_file(_path("quandle", name), name=name)


def _read_form(name):
    """(text, quandle id) of a catalog form file, read once."""
    path = _path("form", name)
    text = read_text(path)
    m = re.search(r"^#\s*quandle\s*:\s*(\S+)", text, re.MULTILINE)
    if not m:
        raise InputError(f"form file {path} lacks a '# quandle: <id>' comment")
    return text, m.group(1)


def load_form(name, quandle=None):
    """A catalog form, validated against the catalog quandle its
    header names, whose name is its id.  quandle is used when it is
    that one, as the caller loaded it already; else it is loaded."""
    text, quandle_id = _read_form(name)
    if quandle is None or quandle.name != quandle_id:
        quandle = load_quandle(quandle_id)
    return parse_form(text, quandle, name=name)


def expected_table(form_name):
    """Expected invariant per link for a catalog form, or None.

    Returns {link name: InvariantPolynomial}.
    """
    path = catalog_root() / "expected" / f"{form_name}.json"
    if not path.is_file():
        return None
    text = read_text(path)
    try:
        return {
            link: InvariantPolynomial.from_term_list(terms)
            for link, terms in json.loads(text)["expected"].items()
        }
    except (ValueError, TypeError, KeyError, AttributeError) as e:
        raise InputError(f"expected file {path} is not a table of term lists: {e}") from None


@dataclass
class CatalogEntry:
    name: str
    diagram: object
    pd: str = None
    orientation: str = None
    expected: dict = dataclass_field(default_factory=dict)


def link_diagram(name):
    """Load one catalog link's diagram, validated by the parser."""
    return load_diagram(_path("link", name))


def load(name):
    """Load one catalog link with its expected polynomials per form."""
    diagram = link_diagram(name)
    expected = {}
    for form_name in list_forms():
        table = expected_table(form_name)
        if table and name in table:
            expected[form_name] = table[name]
    return CatalogEntry(
        name=name,
        diagram=diagram,
        pd=diagram.meta.get("pd"),
        orientation=diagram.meta.get("orientation"),
        expected=expected,
    )
