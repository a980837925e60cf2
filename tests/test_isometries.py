"""Bead counts up to the isometries of the blocks a coloring reads."""

import importlib.util
import itertools
from pathlib import Path

import pytest

import qbeads.field
import qbeads.forms
from qbeads import catalog
from qbeads.coloring import BeadCounter, _solve, bead_solutions, enumerate_xcolorings
from qbeads.diagram import import_pd, load_diagram
from qbeads.field import PrimeField
from qbeads.forms import constant_form, zero_form
from qbeads.invariant import compute_invariant
from qbeads.quandle import conjugation_quandle, weighted_orbits

from group_listing import closure, listed_weighted_orbits
from search_oracle import all_matrices
from test_quandle import sym3

DATA = Path(__file__).parent / "data"
TOOLS = Path(__file__).parent.parent / "tools"


def diagrams():
    """The 18 catalog links and the 9 tests/data diagrams."""
    links = [catalog.link_diagram(name) for name in catalog.list_links()]
    return links + [load_diagram(path) for path in sorted(DATA.glob("*.diagram"))]


def unreduced_count(counter, f):
    """_solve over every value of every seed, each of weight 1."""
    form = counter.form
    tables = [
        (
            form.step_table(f[c.under_in], f[c.over], c.sign),
            form.step_table(f[c.under_out], f[c.over], -c.sign),
        )
        for c in counter.diagram.crossings
    ]
    return _solve(counter.diagram.plan, len(counter.vectors), tables, 0)[0]


def assert_counts_exact(quandle, form, diagrams, oracle_arcs=None):
    """The reduced count against the unreduced one on every coloring,
    and against the oracle on every coloring of a diagram of at most
    oracle_arcs arcs (all when None) and on two of any other: the first
    and the first that is not monochrome."""
    for d in diagrams:
        counter = BeadCounter(d, quandle, form)
        colorings = enumerate_xcolorings(d, quandle)
        oracle = colorings
        if oracle_arcs is not None and d.arc_count > oracle_arcs:
            oracle = colorings[:1] + [f for f in colorings if len(set(f)) > 1][:1]
        for f in colorings:
            reduced = counter.count(f)
            assert reduced == unreduced_count(counter, f), (d.name, form.name, f)
            if f in oracle:
                assert reduced == counter.count(f, engine="oracle"), (d.name, form.name, f)


def swap3():
    return catalog.load_quandle("swap3")


FORMS = {
    "swap3-full": lambda: catalog.load_form("swap3-full"),
    "swap3-partial": lambda: catalog.load_form("swap3-partial"),
    "swap3-zero": lambda: catalog.load_form("swap3-zero"),
    "swap3-F9": lambda: constant_form(swap3(), 3, 2, [[0, 1], [2, 0]]),
    "swap3-F25": lambda: constant_form(swap3(), 5, 2, [[0, 1], [4, 0]]),
    "conjS3-F4": lambda: constant_form(
        conjugation_quandle(sym3(), name="conj(S3)"), 2, 2, [[0, 1], [1, 0]]
    ),
}


@pytest.mark.parametrize("name", FORMS)
def test_reduced_count_is_the_unreduced_and_the_oracle_count(name):
    form = FORMS[name]()
    # at p^n = 25 the oracle's sweep is the slow part on six or more
    # arcs, so it checks two colorings of each of those diagrams
    oracle_arcs = 5 if name == "swap3-F25" else None
    assert_counts_exact(form.quandle, form, diagrams(), oracle_arcs)


def brute_force_isometries(field, n, blocks):
    """The invertible matrices g with g^T B g = B for every block, as
    permutations of vector indices, found by filtering all matrices."""
    vectors = field.all_vectors(n)
    index = {v: i for i, v in enumerate(vectors)}
    found = []
    for g in all_matrices(field, n):
        # columns are the images of e_1, ..., e_n
        image = [
            index[tuple(sum(g[r][k] * v[k] for k in range(n)) % field.p for r in range(n))]
            for v in vectors
        ]
        if len(set(image)) < len(vectors):
            continue
        if all(
            field.bilinear_eval(B, vectors[image[u]], vectors[image[v]])
            == field.bilinear_eval(B, vectors[u], vectors[v])
            for B in blocks
            for u in range(len(vectors))
            for v in range(len(vectors))
        ):
            found.append(tuple(image))
    return found


@pytest.mark.parametrize(
    "p, n, blocks, order",
    [
        (2, 2, [[[0, 1], [1, 0]]], 6),  # Sp_2(F_2) = GL_2(F_2)
        (3, 2, [[[0, 1], [2, 0]]], 24),  # SL_2(F_3)
        (2, 2, [[[0, 0], [0, 0]]], 6),
        (3, 2, [[[0, 0], [0, 0]]], 48),  # GL_2(F_3)
        # SL_2(F_3) maps fixing the first coordinate up to sign
        (3, 2, [[[0, 1], [2, 0]], [[1, 0], [0, 0]]], 6),
        (2, 3, [[[0, 1, 0], [1, 0, 0], [0, 0, 0]]], 24),
        (5, 1, [[[2]]], 2),
    ],
)
def test_isometry_group(p, n, blocks, order):
    field = PrimeField(p)
    t = field.vector_tables(n)
    tables = [t.bilinear_table(B) for B in blocks]
    size = len(t.vectors)
    generators = t.isometries(tables, qbeads.forms.MAX_ISOMETRIES)
    group = closure(generators, size)
    assert len(group) == order
    assert weighted_orbits(generators, size) == listed_weighted_orbits(group, size)
    for g in group:
        assert sorted(g) == list(range(size))
        for u, v in itertools.product(range(size), repeat=2):
            # linear, and g^T B g = B for every block
            assert g[t.vadd[u][v]] == t.vadd[g[u]][g[v]]
            assert all(T[g[u]][g[v]] == T[u][v] for T in tables)
    assert sorted(group) == sorted(brute_force_isometries(field, n, blocks))


@pytest.mark.parametrize(
    "name, orders", [("swap3-full", [6, 6, 6]), ("swap3-F9", [24]), ("swap3-F25", [120])]
)
def test_group_of_a_key_is_the_isometries_of_its_blocks(name, orders):
    form = FORMS[name]()
    t = form.vector_tables
    size = len(t.vectors)
    ids = sorted({i for row in form.block_ids for i in row})
    keys = [frozenset(key) for r in (1, 2) for key in itertools.combinations(ids, r)]
    groups = [closure(form.isometries(key), size) for key in keys]
    assert [len(group) for group in groups] == orders
    for key, group in zip(keys, groups):
        tables = [form.bilinear_tables[i] for i in key]
        for g in group:
            for u, v in itertools.product(range(size), repeat=2):
                assert g[t.vadd[u][v]] == t.vadd[g[u]][g[v]]
                assert all(T[g[u]][g[v]] == T[u][v] for T in tables)
        if size < 25:
            blocks = {
                B for row, row_ids in zip(form.blocks, form.block_ids)
                for B, j in zip(row, row_ids) if j in key
            }
            assert sorted(group) == sorted(brute_force_isometries(form.field, form.n, blocks))


@pytest.mark.parametrize("name", FORMS)
def test_seed_orbits_are_those_of_the_listed_group(name):
    # every set of the form's blocks, the empty set included
    form = FORMS[name]()
    size = len(form.vector_tables.vectors)
    ids = sorted({i for row in form.block_ids for i in row})
    for r in range(len(ids) + 1):
        for key in map(frozenset, itertools.combinations(ids, r)):
            group = closure(form.isometries(key), size)
            assert form.seed_orbits(key) == listed_weighted_orbits(group, size), key


def test_seed_orbits_partition_the_vectors():
    for name in ("swap3-full", "swap3-F9", "swap3-F25"):
        form = FORMS[name]()
        size = len(form.vector_tables.vectors)
        for ids in {frozenset(row) for row in form.block_ids}:
            first, second = form.seed_orbits(ids)
            assert sum(w for _, w in first) == size
            assert sorted(second) == [v for v, _ in first]
            for v, _ in first:
                assert sum(w for _, w in second[v]) == size


def test_search_past_the_cap_generates_a_subgroup(monkeypatch):
    # the zero block at p=2, n=4 is preserved by all of GL_4(F_2), whose
    # 20160 maps the generators reach well within the cap
    form = zero_form(swap3(), 2, 4)
    assert len(closure(form.isometries(frozenset([0])), 16)) == 20160
    assert_counts_exact(swap3(), form, diagrams(), oracle_arcs=3)
    # within the cap the generators reach the whole of SL_2(F_5); past
    # two partial maps the search stops after its first generator, a
    # transvection fixing e_1, of order 5
    form = FORMS["swap3-F25"]()
    assert len(closure(form.isometries(frozenset([0])), 25)) == 120
    monkeypatch.setattr(qbeads.forms, "MAX_ISOMETRIES", 2)
    form = FORMS["swap3-F25"]()
    assert len(closure(form.isometries(frozenset([0])), 25)) == 5
    assert_counts_exact(swap3(), form, diagrams(), oracle_arcs=4)


def test_seed_orbits_of_sp4_f3_come_from_generators():
    # Sp_4(F_3), 51 840 maps, is transitive on the 80 nonzero vectors,
    # so two weighted first seeds stand for all 81
    B = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]]
    form = constant_form(swap3(), 3, 4, B)
    first, _ = form.seed_orbits(frozenset([0]))
    assert first == [(0, 1), (1, 80)]
    spec = importlib.util.spec_from_file_location("gen_catalog", TOOLS / "gen_catalog.py")
    gen_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_catalog)
    pd, signs = gen_catalog.braid_closure(4, [1, -2, 3, -2] * 5).pd_string()
    d = import_pd(pd, signs=signs)
    assert compute_invariant(d, form.quandle, form).polynomial.render() == "5u^2241"


def test_groups_are_built_lazily_once_per_key(monkeypatch):
    built = []
    original = qbeads.field.VectorTables.isometries

    def counted(self, tables, cap):
        built.append(len(tables))
        return original(self, tables, cap)

    monkeypatch.setattr(qbeads.field.VectorTables, "isometries", counted)
    form = catalog.load_form("swap3-full")
    assert built == []
    for _ in range(2):
        for d in diagrams():
            compute_invariant(d, form.quandle, form)
    # the blocks read are {S}, {Z} or {S, Z}, or none on a diagram
    # without crossings
    assert sorted(built) == [0, 1, 1, 2]
    # listing solutions enumerates every value and builds nothing
    built.clear()
    d = catalog.link_diagram("L6a4")
    for f in enumerate_xcolorings(d, form.quandle):
        sols = bead_solutions(d, form.quandle, form, f)
        assert len(sols) == BeadCounter(d, form.quandle, form).count(f)
    assert built == []
