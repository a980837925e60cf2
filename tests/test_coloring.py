import itertools
from pathlib import Path

import pytest

from qbeads import catalog
from qbeads.coloring import (
    BeadCounter,
    bead_solutions,
    count_beads,
    counting_invariant,
    enumerate_xcolorings,
)
from qbeads.diagram import Crossing, LinkDiagram, load_diagram
from qbeads.errors import InputError
from qbeads.forms import constant_form, validate_form, zero_form
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
            brute = [
                f
                for f in itertools.product(range(q.order), repeat=d.arc_count)
                if all(
                    f[c.under_out] == q.op_signed(f[c.under_in], f[c.over], c.sign)
                    for c in d.crossings
                )
            ]
            assert enumerate_xcolorings(d, q) == brute, (d.name, q.name)


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
            lam = form.eval(coloring[c.under_in], coloring[c.over], a, b)
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
