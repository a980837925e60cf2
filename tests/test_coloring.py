import itertools
from pathlib import Path

import pytest

import qbeads.diagram
import qbeads.invariant
from qbeads import catalog
from qbeads.coloring import (
    BeadCounter,
    bead_solutions,
    count_beads,
    counting_invariant,
    enumerate_xcolorings,
    sweep_order,
)
from qbeads.diagram import Crossing, LinkDiagram, import_pd, load_diagram, seed_arcs
from qbeads.errors import InputError, QBeadsError
from qbeads.forms import constant_form, validate_form, zero_form
from qbeads.invariant import compute_invariant
from qbeads.quandle import Quandle, alexander_quandle

DATA = Path(__file__).parent / "data"

SWAP3 = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]
S = [[0, 1], [1, 0]]
Z = [[0, 0], [0, 0]]
PARTIAL = [[S, S, Z], [S, S, Z], [Z, Z, Z]]
FULL = [[S, S, Z], [S, S, Z], [Z, Z, S]]

HOPF = LinkDiagram("hopf", 2, [Crossing(1, 0, 1, 0), Crossing(1, 1, 0, 1)], [[0], [1]])
# one classical crossing between two circles, under_in == under_out
VHOPF = LinkDiagram("vhopf", 2, [Crossing(1, 0, 1, 0)], [[0], [1]])


def small_diagrams():
    """Catalog links of at most six crossings and the tests/data diagrams."""
    links = [catalog.load(name).diagram for name in catalog.list_links()]
    data = [load_diagram(path) for path in sorted(DATA.glob("*.diagram"))]
    return [d for d in links if len(d.crossings) <= 6] + data


@pytest.fixture(scope="module")
def swap3():
    return Quandle.from_table(SWAP3, name="swap3")


def test_hopf_colorings_exact(swap3):
    cols = enumerate_xcolorings(HOPF, swap3)
    assert cols == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    assert counting_invariant(HOPF, swap3) == 5


def test_trefoil_dihedral_count():
    tref = load_diagram(DATA / "trefoil.diagram")
    assert counting_invariant(tref, alexander_quandle(3, 2)) == 9


def test_unknot_has_only_constant_colorings(swap3):
    unknot = load_diagram(DATA / "unknot.diagram")
    assert enumerate_xcolorings(unknot, swap3) == [(0,), (1,), (2,)]


def test_virtual_style_single_crossing(swap3):
    # one classical crossing between two circles; the over circle never
    # passes under anything, which no planar diagram of two circles with
    # one crossing could do
    VHOPF.validate()
    cols = enumerate_xcolorings(VHOPF, swap3)
    # arc 0 must be fixed by the right translation of arc 1's color:
    # anything under 0 or 1, but only 2 under 2
    assert cols == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


def test_xcolorings_match_brute_force(swap3):
    """The compiled plan against a filter over all m^arcs assignments."""
    quandles = [swap3, alexander_quandle(3, 2), alexander_quandle(5, 2)]
    for d in small_diagrams() + [HOPF, VHOPF]:
        for q in quandles:
            assert enumerate_xcolorings(d, q) == brute_force_colorings(d, q), (d.name, q.name)


def brute_force_colorings(d, q):
    return [
        f
        for f in itertools.product(range(q.order), repeat=d.arc_count)
        if all(
            f[c.under_out] == q.op_signed(f[c.under_in], f[c.over], c.sign)
            for c in d.crossings
        )
    ]


def test_engines_agree_at_p3(swap3):
    """Over F_3 the two signs give different step tables, which F_2
    cannot tell apart: the oracle uses forward tables only, the plan
    forward and inverse ones."""
    for q in (swap3, alexander_quandle(3, 2)):
        form = constant_form(q, 3, 2, [[0, 1], [2, 0]])
        for d in small_diagrams():
            counter = BeadCounter(d, q, form)
            for f in enumerate_xcolorings(d, q):
                assert counter.solutions(f, engine="oracle") == sorted(
                    counter.solutions(f, engine="propagate")
                ), (d.name, q.name, f)


def test_sweep_order_closes_crossings_early():
    for d in small_diagrams():
        assert sorted(sweep_order(d)) == list(range(d.arc_count)), d.name
    # L7n1: in index order the first crossing closes at the fifth arc,
    # arc 4; the sweep closes the crossing (0, 5, 1) with its third
    d = catalog.link_diagram("L7n1")
    assert sweep_order(d)[:3] == [0, 1, 5]
    assert min(max(c.under_in, c.over, c.under_out) for c in d.crossings) == 4


def test_oracle_listing_is_sorted_then_cut(swap3):
    form = constant_form(swap3, 3, 2, [[0, 1], [2, 0]])
    d = catalog.link_diagram("L7n1")
    counter = BeadCounter(d, swap3, form)
    for f in enumerate_xcolorings(d, swap3)[:3]:
        full = counter.solutions(f, engine="oracle")
        assert full == sorted(full) == sorted(counter.solutions(f))
        assert counter.solutions(f, engine="oracle", limit=4) == full[:4]


def test_bead_counts_per_coloring(swap3):
    form = validate_form(swap3, PARTIAL, 2, 2)
    counter = BeadCounter(HOPF, swap3, form)
    by_coloring = {
        f: counter.count(f, engine="both") for f in enumerate_xcolorings(HOPF, swap3)
    }
    # the block at (2,2) is zero, so the monochrome-2 coloring is
    # unconstrained; every other coloring pins down 10 of 16 assignments
    assert by_coloring == {
        (0, 0): 10,
        (0, 1): 10,
        (1, 0): 10,
        (1, 1): 10,
        (2, 2): 16,
    }


def test_monochrome_coloring_subcase(swap3):
    """With both strands colored 1 and the over bead fixed at (1,1),
    exactly the beads (0,0) and (1,1) satisfy the crossing equations."""
    form = validate_form(swap3, PARTIAL, 2, 2)
    sols = bead_solutions(HOPF, swap3, form, (1, 1), engine="both")
    picked = sorted(a for a, b in sols if b == (1, 1))
    assert picked == [(0, 0), (1, 1)]


def test_full_family_drops_monochrome_surplus(swap3):
    form = validate_form(swap3, FULL, 2, 2)
    counter = BeadCounter(HOPF, swap3, form)
    assert all(
        counter.count(f, engine="both") == 10
        for f in enumerate_xcolorings(HOPF, swap3)
    )


def test_zero_form_counts_components(swap3):
    form = zero_form(swap3, 2, 2)
    assert count_beads(HOPF, swap3, form, (0, 1), engine="both") == 16
    tref = load_diagram(DATA / "trefoil.diagram")
    assert count_beads(tref, swap3, form, (0, 0, 0), engine="both") == 4


def test_engines_agree_on_fixture_diagrams(swap3):
    for name in ["trefoil", "trefoil-r2", "hopf-r1", "hopf-r2", "unknot-r2"]:
        d = load_diagram(DATA / f"{name}.diagram")
        for blocks in (PARTIAL, FULL):
            form = validate_form(swap3, blocks, 2, 2)
            counter = BeadCounter(d, swap3, form)
            for f in enumerate_xcolorings(d, swap3):
                assert counter.count(f, engine="oracle") == counter.count(
                    f, engine="propagate"
                )


def test_unknown_engine_is_refused_before_enumerating(swap3, monkeypatch):
    form = validate_form(swap3, PARTIAL, 2, 2)

    def enumerated(*args):
        raise AssertionError("enumerated colorings for an unknown engine")

    for name in ("enumerate_xcolorings", "enumerate_weighted_xcolorings"):
        monkeypatch.setattr(qbeads.invariant, name, enumerated)
    with pytest.raises(InputError, match="unknown engine"):
        compute_invariant(HOPF, swap3, form, engine="fast")
    counter = BeadCounter(HOPF, swap3, form)
    with pytest.raises(InputError, match="unknown engine"):
        counter.count((2, 2), engine="fast")
    with pytest.raises(InputError, match="unknown engine"):
        counter.solutions((2, 2), engine="fast")


def test_both_raises_when_the_engines_disagree(swap3, monkeypatch):
    form = validate_form(swap3, PARTIAL, 2, 2)
    counter = BeadCounter(HOPF, swap3, form)
    propagate = BeadCounter._count_propagate
    assert counter.count((2, 2), engine="both") == 16
    assert len(counter.solutions((2, 2), engine="both")) == 16

    def one_more(self, coloring, limit):
        count, sols = propagate(self, coloring, limit)
        return count + 1, sols

    def one_fewer_listed(self, coloring, limit):
        count, sols = propagate(self, coloring, limit)
        return count, sols[1:]

    message = r"engine disagreement: oracle=16 propagate=1[67] for coloring \(2, 2\)"
    monkeypatch.setattr(BeadCounter, "_count_propagate", one_more)
    with pytest.raises(QBeadsError, match=message):
        counter.count((2, 2), engine="both")
    monkeypatch.setattr(BeadCounter, "_count_propagate", one_fewer_listed)
    assert counter.count((2, 2), engine="both") == 16
    with pytest.raises(QBeadsError, match=message):
        counter.solutions((2, 2), engine="both", limit=3)


def test_solution_listing_and_limit(swap3):
    form = validate_form(swap3, PARTIAL, 2, 2)
    sols = bead_solutions(HOPF, swap3, form, (2, 2))
    assert len(sols) == 16
    assert all(len(s) == 2 for s in sols)
    few = bead_solutions(HOPF, swap3, form, (0, 0), limit=3)
    assert len(few) == 3
    assert bead_solutions(HOPF, swap3, form, (0, 0), limit=0) == []


def test_solutions_satisfy_the_step_equations(swap3):
    form = validate_form(swap3, FULL, 2, 2)
    coloring = (2, 2)
    for sol in bead_solutions(HOPF, swap3, form, coloring, engine="both"):
        for c in HOPF.crossings:
            a, b = sol[c.under_in], sol[c.over]
            block = form.blocks[coloring[c.under_in]][coloring[c.over]]
            lam = form.field.bilinear_eval(block, a, b)
            stepped = form.field.vec_add(a, form.field.scalar_mul(lam, b))
            assert sol[c.under_out] == stepped


def test_rejects_non_coloring(swap3):
    form = validate_form(swap3, PARTIAL, 2, 2)
    with pytest.raises(InputError):
        count_beads(HOPF, swap3, form, (0, 2))
    with pytest.raises(InputError):
        count_beads(HOPF, swap3, form, (0,))
    with pytest.raises(InputError):
        count_beads(HOPF, swap3, form, (0, 5))


def test_rejects_unvalidated_form(swap3):
    with pytest.raises(InputError):
        count_beads(HOPF, swap3, PARTIAL, (0, 0))


def test_engine_names(swap3):
    form = validate_form(swap3, PARTIAL, 2, 2)
    with pytest.raises(InputError):
        count_beads(HOPF, swap3, form, (0, 0), engine="guess")
    with pytest.raises(InputError):
        bead_solutions(HOPF, swap3, form, (0, 0), engine="guess")
    with pytest.raises(InputError):
        BeadCounter(HOPF, swap3, form).solutions((0, 0), engine="guess")


# -- the propagation plan ---------------------------------------------


def plan_diagrams():
    """All 18 catalog links, the tests/data diagrams, HOPF and VHOPF."""
    links = [catalog.link_diagram(name) for name in catalog.list_links()]
    data = [load_diagram(path) for path in sorted(DATA.glob("*.diagram"))]
    return links + data + [HOPF, VHOPF]


def torus_2(n):
    """The closed 2-braid sigma_1^n: n arcs, arc i passes under arc i+1."""
    crossings = [Crossing(1, i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    if n % 2:
        components = [[(2 * i) % n for i in range(n)]]
    else:
        components = [list(range(0, n, 2)), list(range(1, n, 2))]
    return LinkDiagram(f"T(2,{n})", n, crossings, components).validate()


def check_plan(d):
    """Walk the plan: every step reads only known arcs, derives an
    unknown one or checks a known one, and in the end every crossing
    has exactly one step and every arc is a seed or one step's target."""
    known = set()
    stepped = []
    for seed, steps in d.plan:
        assert seed not in known, d.name
        known.add(seed)
        for kind, i, target, source, over in steps:
            c = d.crossings[i]
            ends = (c.under_out, c.under_in) if kind == "backward" else (c.under_in, c.under_out)
            assert (source, target, over) == (*ends, c.over), (d.name, i)
            assert {source, over} <= known, (d.name, i)
            assert (target in known) == (kind == "check"), (d.name, i)
            known.add(target)
            stepped.append(i)
    assert sorted(stepped) == list(range(len(d.crossings))), d.name
    assert known == set(range(d.arc_count)), d.name


def fixes_every_arc(d, seeds):
    known = set(seeds)
    grew = True
    while grew:
        grew = False
        for c in d.crossings:
            for a, b in ((c.under_in, c.under_out), (c.under_out, c.under_in)):
                if c.over in known and a in known and b not in known:
                    known.add(b)
                    grew = True
    return len(known) == d.arc_count


def brute_force_wirtinger_number(d):
    return next(
        k
        for k in range(d.arc_count + 1)
        if any(fixes_every_arc(d, s) for s in itertools.combinations(range(d.arc_count), k))
    )


def test_plan_steps_every_crossing_once_and_fixes_every_arc():
    for d in plan_diagrams() + [torus_2(24), torus_2(25)]:
        check_plan(d)


def test_seeds_are_a_minimum_wirtinger_set():
    for d in plan_diagrams():
        seeds = seed_arcs(d)
        assert seeds == sorted(seed for seed, _ in d.plan)
        assert len(seeds) == brute_force_wirtinger_number(d), d.name


def test_seeds_above_the_exhaustive_bound(monkeypatch, swap3):
    # 24 and 25 arcs take the greedy path with local improvement; one
    # seed fixes nothing here, and two neighbouring arcs fix every arc
    for n, colorings in ((24, 9), (25, 3)):
        d = torus_2(n)
        assert len(seed_arcs(d)) == 2
        assert counting_invariant(d, alexander_quandle(3, 2)) == colorings
    # greedy alone needs 5 seeds on L6a4 and 4 on L6a2; dropping and
    # swapping seeds reaches the minimum on every catalog link
    monkeypatch.setattr(qbeads.diagram, "MAX_EXHAUSTIVE_ARCS", 0)
    for name in catalog.list_links():
        d = catalog.link_diagram(name)
        check_plan(d)
        assert len(seed_arcs(d)) == brute_force_wirtinger_number(d), name
        assert enumerate_xcolorings(d, swap3) == brute_force_colorings(d, swap3), name


def test_exhaustive_search_finds_fewer_seeds_than_greedy(monkeypatch):
    # a 13-crossing knot, the closure of the 4-strand braid
    # 1 -3 -2 -3 -2 -2 1 -1 -1 2 1 -1 -1 (braid_closure in
    # tools/gen_catalog.py): greedy seeds with drop and swap moves
    # stop at 3, the subset search finds 2
    d = import_pd(
        "X[26,14,1,13] X[23,8,24,9] X[22,25,23,26] X[7,24,8,25] X[6,21,7,22] "
        "X[20,5,21,6] X[12,20,13,19] X[11,18,12,19] X[17,10,18,11] X[9,5,10,4] "
        "X[16,4,17,3] X[15,2,16,3] X[1,14,2,15]",
        "+-----+--++--",
    )
    check_plan(d)
    assert len(seed_arcs(d)) == brute_force_wirtinger_number(d) == 2
    monkeypatch.setattr(qbeads.diagram, "MAX_EXHAUSTIVE_ARCS", 0)
    assert len(seed_arcs(d)) == 3


def test_plan_is_built_once_per_diagram(monkeypatch, swap3):
    built = []
    original = qbeads.diagram.propagation_plan

    def counted(d):
        built.append(d.name)
        return original(d)

    monkeypatch.setattr(qbeads.diagram, "propagation_plan", counted)
    d = catalog.link_diagram("L6a4")
    for form in (
        validate_form(swap3, PARTIAL, 2, 2),
        validate_form(swap3, FULL, 2, 2),
        constant_form(swap3, 3, 2, [[0, 1], [2, 0]]),
    ):
        for engine in ("propagate", "both"):
            compute_invariant(d, swap3, form, engine=engine)
        counter = BeadCounter(d, swap3, form)
        for f in enumerate_xcolorings(d, swap3):
            counter.count(f)
    assert built == ["L6a4"]
