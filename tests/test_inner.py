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
from qbeads.forms import constant_form, load_form, validate_form, zero_form
from qbeads.invariant import InvariantPolynomial, compute_invariant
from qbeads.quandle import alexander_quandle, conjugation_quandle, load_quandle, trivial_quandle
from qbeads.search import run_search

from group_listing import closure, listed_weighted_orbits
from quandle_ops import op
from test_quandle import GROUPS, sym3

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).parent.parent / "perfbench" / "data"
LADDER = BENCH / "diagrams"


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
            assert g[op(q, x, y)] == op(q, g[x], g[y])
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


def bench_form(qid, fid):
    quandle = load_quandle(BENCH / "quandles" / f"{qid}.quandle", name=qid)
    return load_form(BENCH / "forms" / f"{fid}.form", quandle)


GROUPED_FORMS = {
    # two orbits
    "swap3-partial": lambda: catalog.load_form("swap3-partial"),
    "swap3-full": lambda: catalog.load_form("swap3-full"),
    # three orbits
    "conjS3-F4": lambda: bench_form("conjS3", "conjS3-F4"),
    # connected
    "alex52-F4": lambda: bench_form("alex52", "alex52-F4"),
    # every element its own orbit; the block at (x, y) is nonzero for y > 0
    "trivial3-columns": lambda: validate_form(
        trivial_quandle(3), [[[[0, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 1], [1, 0]]]] * 3, 2, 2
    ),
}


@pytest.mark.parametrize("name", GROUPED_FORMS)
def test_class_grouping_matches_full_enumeration(name):
    """The propagate engine counts once per class of leaves with one
    block key; the both engine counts every coloring with the oracle
    and the propagate engine.  Polynomials and per-coloring counts
    agree on every diagram."""
    form = GROUPED_FORMS[name]()
    for d in diagrams():
        grouped = compute_invariant(d, form.quandle, form)
        every = compute_invariant(d, form.quandle, form, engine="both")
        assert grouped.polynomial == every.polynomial, d.name
        assert grouped.colorings == every.colorings, d.name
        assert grouped.counts == every.counts, d.name


ONE_BLOCK_FORMS = {
    "conjS3-F4": GROUPED_FORMS["conjS3-F4"],
    "alex52-F4": GROUPED_FORMS["alex52-F4"],
    "swap3-F9": lambda: bench_form("swap3", "swap3-F9"),
    "zero-swap3": lambda: zero_form(catalog.load_quandle("swap3"), 2, 2),
}


def test_propagate_checks_no_coloring_it_enumerated(monkeypatch):
    """compute_invariant counts the colorings its own plan enumerated
    by their keys, so the propagate engine checks none of them, while
    the both engine checks every coloring it counts."""
    form = catalog.load_form("swap3-partial")
    d = load_diagram(LADDER / "T44.diagram")
    checked = []
    check = BeadCounter._check_coloring

    def spied(self, coloring):
        checked.append(coloring)
        return check(self, coloring)

    monkeypatch.setattr(BeadCounter, "_check_coloring", spied)
    compute_invariant(d, form.quandle, form)
    assert checked == []
    every = compute_invariant(d, form.quandle, form, engine="both")
    assert checked == every.colorings


@pytest.mark.parametrize("name", ONE_BLOCK_FORMS)
def test_one_block_forms_count_once(monkeypatch, name):
    """Under a form of one block every X-coloring has one block key, so
    the propagate engine counts once, on the key of the constant
    coloring, and its polynomial, colorings and counts equal those of
    the both engine, which counts every coloring, on every diagram."""
    form = ONE_BLOCK_FORMS[name]()
    assert len(form.bilinear_tables) == 1
    calls = []
    count_key = BeadCounter.count_key

    def counted(self, key):
        calls.append(key)
        return count_key(self, key)

    for d in diagrams():
        calls.clear()
        monkeypatch.setattr(BeadCounter, "count_key", counted)
        one = compute_invariant(d, form.quandle, form)
        monkeypatch.undo()
        constant = BeadCounter(d, form.quandle, form).block_key((0,) * d.arc_count)
        assert calls == [constant] == [(0,) * len(d.crossings)], d.name
        every = compute_invariant(d, form.quandle, form, engine="both")
        assert one.polynomial == every.polynomial, d.name
        assert one.colorings == every.colorings, d.name
        assert one.counts == every.counts, d.name


def test_one_bead_count_per_block_key(monkeypatch):
    form = catalog.load_form("swap3-partial")
    d = load_diagram(LADDER / "T44.diagram")
    assert len(d.components) == 4
    calls = []
    count_key = BeadCounter.count_key

    def counted(self, key):
        calls.append(key)
        return count_key(self, key)

    monkeypatch.setattr(BeadCounter, "count_key", counted)
    result = compute_invariant(d, form.quandle, form)
    counter = BeadCounter(d, form.quandle, form)
    keys = {counter.block_key(f) for f in result.colorings}
    assert len(calls) == len(keys) == 8
    assert set(calls) == keys
    # the keys counted are the class keys, each counted once
    classes = qbeads.invariant._classes(d, form.quandle, counter)
    assert calls == list(classes)
