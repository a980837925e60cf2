"""X-colorings up to Inn(X): the group, the weights and the polynomial."""

import itertools
import math
from pathlib import Path

import pytest

import qbeads.invariant
from qbeads import catalog
from qbeads.coloring import (
    BeadCounter,
    counting_invariant,
    enumerate_weighted_xcolorings,
    enumerate_xcolorings,
)
from qbeads.diagram import load_diagram
from qbeads.forms import constant_form, validate_form
from qbeads.invariant import InvariantPolynomial, compute_invariant
from qbeads.quandle import alexander_quandle, conjugation_quandle, trivial_quandle
from qbeads.search import run_search

from group_listing import closure, listed_weighted_orbits
from test_quandle import GROUPS, sym3

DATA = Path(__file__).parent / "data"
LADDER = Path(__file__).parent.parent / "perfbench" / "data" / "diagrams"


def conj_s3():
    return conjugation_quandle(sym3(), name="conj(S3)")


QUANDLES = {
    "swap3": (lambda: catalog.load_quandle("swap3"), 2),
    "conj(S3)": (conj_s3, 6),
    "alexander(5,2)": (lambda: alexander_quandle(5, 2), 20),
    "trivial3": (lambda: trivial_quandle(3), 1),
    "trivial2": (lambda: trivial_quandle(2), 1),
}


def diagrams(ladder=True):
    """The 18 catalog links, the tests/data diagrams and, with ladder,
    the benchmark's ladder diagrams."""
    found = [catalog.link_diagram(name) for name in catalog.list_links()]
    found += [load_diagram(path) for path in sorted(DATA.glob("*.diagram"))]
    if ladder:
        found += [load_diagram(path) for path in sorted(LADDER.glob("*.diagram"))]
    return found


def compose(g, h):
    """g after h."""
    return tuple(g[x] for x in h)


def inner_automorphisms(q):
    """Inn(X), listed: the closure of the right translations."""
    return closure(set(zip(*q.table)), q.order)


@pytest.mark.parametrize("name", QUANDLES)
def test_inner_automorphism_group(name):
    build, order = QUANDLES[name]
    q = build()
    group = inner_automorphisms(q)
    assert len(group) == len(set(group)) == order
    assert group[0] == tuple(q.elements)
    orbits = q.orbits()
    for g in group:
        assert sorted(g) == list(q.elements)
        for x, y in itertools.product(q.elements, repeat=2):
            assert g[q.op(x, y)] == q.op(g[x], g[y])
        assert all(orbits[g[x]] == orbits[x] for x in q.elements)
    # the right translations generate it, and it is closed
    members = set(group)
    assert {tuple(row[y] for row in q.table) for y in q.elements} <= members
    assert all(compose(g, h) in members for g in group for h in group)


def test_orbits_from_generators_are_those_of_the_listed_group():
    # the quandles above, every Alexander quandle on Z_n with n <= 11,
    # the conjugation quandles of the test groups and trivial quandles
    quandles = [build() for build, _ in QUANDLES.values()]
    quandles += [
        alexander_quandle(n, t) for n in range(1, 12) for t in range(1, n) if math.gcd(t, n) == 1
    ]
    quandles += [conjugation_quandle(table) for table in GROUPS]
    quandles += [trivial_quandle(m) for m in range(1, 5)]
    for q in quandles:
        group = inner_automorphisms(q)
        assert q.inner_orbits == listed_weighted_orbits(group, q.order), q.name
        assert q.orbits() == tuple(min(g[x] for g in group) for x in q.elements), q.name


def test_inner_group_is_built_on_first_use():
    q = conj_s3()
    assert "inner_orbits" not in vars(q)
    first, second = q.inner_orbits
    assert "inner_orbits" in vars(q)
    # conj(S3) has three orbits: the identity, the transpositions and
    # the 3-cycles
    assert sorted(w for _, w in first) == [1, 2, 3]
    for v, _ in first:
        assert sum(w for _, w in second[v]) == q.order


@pytest.mark.parametrize("name", QUANDLES)
def test_weights_add_up_to_the_colorings(name):
    q = QUANDLES[name][0]()
    group = inner_automorphisms(q)
    for d in diagrams():
        colorings = enumerate_xcolorings(d, q)
        leaves = enumerate_weighted_xcolorings(d, q)
        assert sum(w for _, w in leaves) == len(colorings) == counting_invariant(d, q), d.name
        # the indicator of an Inn(X)-class is invariant, so the weights
        # of the leaves in each class add up to its size
        class_of = {}
        for f in colorings:
            if f not in class_of:
                members = frozenset(compose(g, f) for g in group)
                class_of.update(dict.fromkeys(members, members))
        weight = dict.fromkeys(class_of.values(), 0)
        for f, w in leaves:
            weight[class_of[f]] += w
        assert all(w == len(c) for c, w in weight.items()), d.name


def reference_polynomial(d, form):
    """sum over every X-coloring f of u^count(f), one bead count per
    distinct tuple of (sign, the two matrices each crossing reads)."""
    counter = BeadCounter(d, form.quandle, form)
    B = form.blocks
    memo = {}
    poly = InvariantPolynomial()
    for f in enumerate_xcolorings(d, form.quandle):
        key = tuple(
            (c.sign, B[f[c.under_in]][f[c.over]], B[f[c.under_out]][f[c.over]])
            for c in d.crossings
        )
        if key not in memo:
            memo[key] = counter.count(f)
        poly.add_exponent(memo[key])
    return poly


def symplectic_diagonal(q, p):
    """The form on a trivial quandle with the alternating block
    [[0, x], [-x, 0]] at (x, x) and zero elsewhere."""
    zero = [[0, 0], [0, 0]]
    blocks = [
        [[[0, x % p], [-x % p, 0]] if x == y else zero for y in q.elements]
        for x in q.elements
    ]
    return validate_form(q, blocks, p, 2, name=f"diagonal{q.order}")


FORMS = {
    "swap3-full": lambda: [catalog.load_form("swap3-full")],
    "swap3-partial": lambda: [catalog.load_form("swap3-partial")],
    "swap3-zero": lambda: [catalog.load_form("swap3-zero")],
    "alexander(5,2)-F4": lambda: [
        constant_form(alexander_quandle(5, 2), 2, 2, [[0, 1], [1, 0]])
    ],
    "conj(S3)-F4": lambda: [constant_form(conj_s3(), 2, 2, [[0, 1], [1, 0]])],
    "trivial3-diagonal": lambda: [symplectic_diagonal(trivial_quandle(3), 3)],
    "trivial2-diagonal": lambda: [symplectic_diagonal(trivial_quandle(2), 3)],
}


@pytest.mark.parametrize("name", FORMS)
def test_polynomial_is_the_sum_over_every_coloring(name):
    for form in FORMS[name]():
        for d in diagrams():
            got = compute_invariant(d, form.quandle, form).polynomial
            assert got == reference_polynomial(d, form), (d.name, form.name)


def test_polynomial_under_every_searched_form_on_conj_s3():
    # several orbits, so non-constant forms
    result = run_search(conj_s3(), 2, 2, allow_large=True)
    assert result.complete and len(result.forms) == 33
    assert len({f.blocks[0][0] for f in result.forms}) > 1
    for form in result.forms:
        for d in diagrams():
            got = compute_invariant(d, form.quandle, form).polynomial
            assert got == reference_polynomial(d, form), (d.name, form.blocks)


def test_listing_is_computed_on_first_read(monkeypatch):
    form = catalog.load_form("swap3-partial")
    d = catalog.link_diagram("L6a4")
    calls = []
    original = qbeads.invariant.enumerate_xcolorings

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qbeads.invariant, "enumerate_xcolorings", counted)
    result = compute_invariant(d, form.quandle, form)
    assert calls == []
    counter = BeadCounter(d, form.quandle, form)
    assert result.counts == [counter.count(f) for f in result.colorings]
    assert result.colorings == original(d, form.quandle)
    assert len(calls) == 1
