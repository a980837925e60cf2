import gc
import importlib.util
import itertools
import sys
import weakref
from pathlib import Path

import pytest

import qbeads.diagram
import qbeads.invariant
from qbeads import catalog
from qbeads.coloring import (
    ENGINES,
    BeadCounter,
    _quandle_tables,
    bead_solutions,
    count_beads,
    counting_invariant,
    enumerate_xcolorings,
    sweep_order,
)
from qbeads.diagram import (
    KERNEL_CACHE_SIZE,
    MAX_KERNEL_SEEDS,
    Crossing,
    LinkDiagram,
    compile_plan,
    compile_structure,
    import_pd,
    kernel_source,
    load_diagram,
    propagation_plan,
    seed_arcs,
)
from qbeads.errors import InputError, QBeadsError
from qbeads.forms import constant_form, validate_form, zero_form
from qbeads.invariant import compute_invariant
from qbeads.quandle import Preimages, Quandle, alexander_quandle, trivial_quandle

from diagram_ops import canonical_key
from field_ops import bilinear_eval, scalar_mul, vec_add
from plan_reference import ascending_plan, solve
from quandle_ops import op_signed

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
    """The plan against a filter over all m^arcs assignments."""
    quandles = [swap3, alexander_quandle(3, 2), alexander_quandle(5, 2)]
    for d in small_diagrams() + [HOPF, VHOPF]:
        for q in quandles:
            assert enumerate_xcolorings(d, q) == brute_force_colorings(d, q), (d.name, q.name)


def brute_force_colorings(d, q):
    return [
        f
        for f in itertools.product(range(q.order), repeat=d.arc_count)
        if all(
            f[c.under_out] == op_signed(q, f[c.under_in], f[c.over], c.sign)
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


@pytest.mark.parametrize("form_name", ["swap3-partial", "swap3-full"])
def test_solutions_come_in_seed_order(form_name):
    """The propagate engine lists bead colorings in lexicographic order
    of the values of the seeds, taken in plan order, and a limit keeps
    the first limit of that order.  The oracle's listing is the
    reference set.  The catalog links' seeds skip arcs, so this order
    differs from the oracle's arc order, and P(3,3,3)'s plan runs its
    seeds out of ascending order."""
    form = catalog.load_form(form_name)
    q = form.quandle
    index = {v: i for i, v in enumerate(form.vector_tables.vectors)}
    reordered = 0
    diagrams = [HOPF] + [catalog.link_diagram(name) for name in ("L6a4", "L6n1", "L7a2")]
    diagrams.append(load_diagram(BENCH_DIAGRAMS / "P333.diagram"))
    for d in diagrams:
        seeds = [seed for seed, _ in d.plan]
        assert sorted(seeds) == seed_arcs(d)
        for f in enumerate_xcolorings(d, q):
            every = bead_solutions(d, q, form, f, engine="oracle")
            expected = sorted(every, key=lambda s: [index[s[a]] for a in seeds])
            reordered += expected != every
            assert bead_solutions(d, q, form, f) == expected, (d.name, f)
            for limit in (0, 1, 2, len(expected) // 2, len(expected), len(expected) + 1):
                listed = bead_solutions(d, q, form, f, limit=limit)
                assert listed == expected[:limit], (d.name, f, limit)
    assert reordered
    assert [seed for seed, _ in diagrams[-1].plan] == [0, 3, 2]


def test_solutions_satisfy_the_step_equations(swap3):
    form = validate_form(swap3, FULL, 2, 2)
    coloring = (2, 2)
    for sol in bead_solutions(HOPF, swap3, form, coloring, engine="both"):
        for c in HOPF.crossings:
            a, b = sol[c.under_in], sol[c.over]
            block = form.blocks[coloring[c.under_in]][coloring[c.over]]
            lam = bilinear_eval(form.field, block, a, b)
            stepped = vec_add(form.field, a, scalar_mul(form.field, lam, b))
            assert sol[c.under_out] == stepped


def test_rejects_non_coloring(swap3):
    form = validate_form(swap3, PARTIAL, 2, 2)
    counter = BeadCounter(HOPF, swap3, form)
    # not an X-coloring, too short, a color out of range
    for coloring in [(0, 2), (0,), (0, 5)]:
        with pytest.raises(InputError):
            count_beads(HOPF, swap3, form, coloring)
        for engine in ("propagate", "both"):
            with pytest.raises(InputError):
                counter.count(coloring, engine=engine)


def test_every_public_entry_rejects_non_colorings(swap3):
    form = validate_form(swap3, PARTIAL, 2, 2)
    counter = BeadCounter(HOPF, swap3, form)
    entries = [
        lambda f, engine: count_beads(HOPF, swap3, form, f, engine=engine),
        lambda f, engine: bead_solutions(HOPF, swap3, form, f, engine=engine),
        lambda f, engine: counter.count(f, engine=engine),
        lambda f, engine: counter.solutions(f, engine=engine),
        lambda f, engine: counter.solutions(f, engine=engine, limit=1),
    ]
    # not an X-coloring, too short, too long, out of range, not an int
    for coloring in [(0, 2), (0,), (0, 0, 0), (0, 5), (-1, -1), (0, 1.0)]:
        for entry in entries:
            for engine in ENGINES:
                with pytest.raises(InputError):
                    entry(coloring, engine)


def test_count_key_is_the_count_of_its_colorings(swap3):
    form = validate_form(swap3, FULL, 2, 2)
    d = catalog.link_diagram("L6a4")
    counter = BeadCounter(d, swap3, form)
    for f in enumerate_xcolorings(d, swap3):
        assert counter.count_key(counter.block_key(f)) == counter.count(f)
    crossings = len(d.crossings)
    for key in [(0,) * (crossings - 1), (0,) * (crossings + 1), (-1,) * crossings]:
        with pytest.raises(InputError):
            counter.count_key(key)
    with pytest.raises(InputError):
        counter.count_key((0,) * (crossings - 1) + (len(form.bilinear_tables),))


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
    has exactly one step and every arc is a seed or one step's target.
    A "key" is a check: a stage holds one exactly when it is stage 2 or
    later and has a check whose over arc is its seed and whose under
    ends the stages before it fixed, and then it is the first such
    check and the stage's only key."""
    known = set()
    stepped = []
    for depth, (seed, steps) in enumerate(d.plan):
        assert seed not in known, d.name
        keyable = [
            j
            for j, (kind, _, target, source, over) in enumerate(steps)
            if kind in ("check", "key") and over == seed and {source, target} <= known
        ]
        keys = [j for j, (kind, *_) in enumerate(steps) if kind == "key"]
        assert keys == (keyable[:1] if depth >= 2 else []), (d.name, depth)
        known.add(seed)
        for kind, i, target, source, over in steps:
            c = d.crossings[i]
            ends = (c.under_out, c.under_in) if kind == "backward" else (c.under_in, c.under_out)
            assert (source, target, over) == (*ends, c.over), (d.name, i)
            assert {source, over} <= known, (d.name, i)
            assert (target in known) == (kind in ("check", "key")), (d.name, i)
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


def test_oracle_sweeps_diagrams_deeper_than_the_recursion_limit(swap3):
    # 301 arcs: a call per arc would pass the limit
    form = validate_form(swap3, PARTIAL, 2, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = compute_invariant(torus_2(301), swap3, form, engine="both")
    finally:
        sys.setrecursionlimit(limit)
    assert result.polynomial.render() == "3u^4"


def test_plans_with_more_seeds_than_the_recursion_limit():
    # 300 free loops are 300 seeds: the kernel runs the first
    # MAX_KERNEL_SEEDS and chains the rest through 14 parts, so the
    # kernel's calls stay far below the limit.  At n = 0 each seed takes
    # one bead value, and a larger n would enumerate p^(300n) leaves
    q = trivial_quandle(1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        assert counting_invariant(free_loops(300), q) == 1
        result = compute_invariant(free_loops(300), q, zero_form(q, 2, 0))
    finally:
        sys.setrecursionlimit(limit)
    assert result.polynomial.render() == "u"


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


# P(3,3,3,3,3) as tools/gen_catalog.py draws it: 15 arcs, 5 seeds
P33333_PD = (
    "X[30,13,1,14] X[14,29,15,30] X[28,15,29,16] X[12,25,13,26] X[26,11,27,12] "
    "X[10,27,11,28] X[24,7,25,8] X[8,23,9,24] X[22,9,23,10] X[6,19,7,20] "
    "X[20,5,21,6] X[4,21,5,22] X[18,1,19,2] X[2,17,3,18] X[16,3,17,4]"
)


def checks_per_stage(plan):
    return [sum(kind in ("check", "key") for kind, *_ in steps) for _, steps in plan]


def keyed_stages(plan):
    return [k for k, (_, steps) in enumerate(plan) if any(kind == "key" for kind, *_ in steps)]


def test_plans_close_checks_before_the_last_stage():
    """Ascending seeds leave all five checks of P(3,3,3,3,3) to the last
    stage, a size^5 count; the cost order closes one at each of stages
    2 and 3.  No order of its seeds keys a stage: no seed is the over
    arc of a crossing whose under ends the seeds before it fix.
    P(2,2,2,2,2) keys its last three stages, each on its first step."""
    d = import_pd(P33333_PD, "-" * 15)
    assert [seed for seed, _ in d.plan] == [0, 6, 5, 3, 2]
    assert checks_per_stage(d.plan) == [0, 0, 1, 1, 3]
    assert checks_per_stage(ascending_plan(d)) == [0, 0, 0, 0, 5]
    assert keyed_stages(d.plan) == []
    p22222 = load_diagram(BENCH_DIAGRAMS / "P22222.diagram")
    assert [seed for seed, _ in p22222.plan] == [1, 2, 4, 6, 8]
    assert checks_per_stage(p22222.plan) == [0, 0, 1, 1, 3]
    check_plan(p22222)
    assert keyed_stages(p22222.plan) == [2, 3, 4]
    assert [steps[0][0] for _, steps in p22222.plan[2:]] == ["key"] * 3
    source = kernel_source(p22222.plan)
    # stage 2 checks crossing 2: a2 == t2[a3][a4], with a2 and a3 fixed
    assert "    p2 = tables[2][2]\n" in source and "t2 =" not in source
    assert "for a4 in p2[a3][a2]:" in source
    # five checks, three of them keyed, and no stage runs every value
    assert source.count("!=") == 2 and " in every:" not in source


def test_counts_are_those_of_the_ascending_plan(swap3):
    """Every catalog, tests/data and benchmark diagram on 8 relabellings:
    X-colorings (listed and counted) and the bead colorings (counted,
    and listed by the kernel) of every coloring under both catalog
    forms are those that the reference solver gives on the plan with
    the same seeds in ascending order.
    swap3 and F_2 cannot tell a table from its inverse, so the same runs
    on Alexander (5, 2), with bead counts of a few colorings each under
    a form at p = 3."""
    relabel = load_relabel()
    alex = alexander_quandle(5, 2)
    cases = [
        (swap3, [catalog.load_form(name, swap3) for name in ("swap3-partial", "swap3-full")], None),
        (alex, [constant_form(alex, 3, 2, [[0, 1], [2, 0]])], 3),
    ]
    for base in every_diagram():
        for v in range(8):
            d = relabel.relabel_diagram(base, relabel.rng_for(1, v, base.name))
            plan = ascending_plan(d)
            for q, forms, few in cases:
                tables = _quandle_tables(d, q)
                count, colorings = solve(plan, q.order, tables, None)
                assert enumerate_xcolorings(d, q) == sorted(colorings), (d.name, v, q.name)
                assert counting_invariant(d, q) == count, (d.name, v, q.name)
                if few is not None:
                    colorings = colorings[:1] + [f for f in colorings if len(set(f)) > 1][: few - 1]
                for form in forms:
                    counter = BeadCounter(d, q, form)
                    size = len(counter.vectors)
                    for f in colorings:
                        tables = counter._step_tables(counter.block_key(f))
                        count, beads = solve(plan, size, tables, None)
                        assert counter.count(f) == count, (d.name, v, form.name, f)
                        listed = d.kernel(size, tables, None, None)[1]
                        assert sorted(listed) == sorted(beads), (d.name, v, form.name, f)


def test_preimages_list_each_value_s_columns_in_order():
    """Rows are built on first read; equal tuples are shared."""
    vt = validate_form(trivial_quandle(1), [[[[0, 1], [2, 0]]]], 3, 2).step_pairs
    forward, _, preimages = vt[0, 1]
    assert dict(preimages) == {}
    for x, row in enumerate(forward):
        index = preimages[x]
        assert [list(index[v]) for v in range(9)] == [
            [y for y in range(9) if row[y] == v] for v in range(9)
        ]
    assert len(preimages) == 9
    shared = {id(ys) for index in preimages.values() for ys in index}
    assert len(shared) == len({ys for index in preimages.values() for ys in index})
    q = alexander_quandle(5, 2)
    table, inverse = q.preimages
    assert table.table is q.table and inverse.table is q.inv_table


def test_plan_is_built_once_per_structure(monkeypatch, swap3):
    """Two loads of one link, every engine and three forms: one plan
    built and one kernel compiled."""
    built = []
    original = qbeads.diagram._propagation_plan

    def counted(*structure):
        built.append(structure)
        return original(*structure)

    monkeypatch.setattr(qbeads.diagram, "_propagation_plan", counted)
    compile_structure.cache_clear()
    for d in (catalog.link_diagram("L6a4"), catalog.link_diagram("L6a4")):
        for form in (
            validate_form(swap3, PARTIAL, 2, 2),
            validate_form(swap3, FULL, 2, 2),
            constant_form(swap3, 3, 2, [[0, 1], [2, 0]]),
        ):
            for engine in ENGINES:
                compute_invariant(d, swap3, form, engine=engine)
            counter = BeadCounter(d, swap3, form)
            for f in enumerate_xcolorings(d, swap3):
                counter.count(f)
    assert built == [(d.arc_count, d.crossings, len(d.components))]
    assert compile_structure.cache_info().misses == 1


# -- the compiled plan ------------------------------------------------

BENCH_DIAGRAMS = Path(__file__).parent.parent / "perfbench" / "data" / "diagrams"


def every_diagram():
    """The catalog links, the tests/data diagrams and the benchmark's."""
    benchmark = [load_diagram(path) for path in sorted(BENCH_DIAGRAMS.glob("*.diagram"))]
    return plan_diagrams() + benchmark


def assert_kernel_is_solve(kernel, plan, size, tables, orbits, where):
    for limit in (0, 3, None):
        for weights in (None, orbits):
            expected = solve(plan, size, tables, limit, weights)
            assert kernel(size, tables, limit, weights) == expected, (where, limit, weights is None)


def test_kernel_returns_what_solve_returns():
    """Counts, solutions in order, weights and limits, on X-colorings
    and on bead colorings of the first and the first non-monochrome
    X-coloring, over the catalog forms and a form at p = 3."""
    swap3 = catalog.load_quandle("swap3")
    alex = alexander_quandle(3, 2)
    forms = [catalog.load_form(name, swap3) for name in catalog.list_forms()]
    forms += [constant_form(q, 3, 2, [[0, 1], [2, 0]]) for q in (swap3, alex)]
    for d in every_diagram():
        kernel = compile_plan(d.plan)
        for q in (swap3, alex):
            tables = _quandle_tables(d, q)
            assert_kernel_is_solve(kernel, d.plan, q.order, tables, q.inner_orbits, (d.name, q.name))
        for form in forms:
            q = form.quandle
            colorings = enumerate_xcolorings(d, q)
            for f in colorings[:1] + [f for f in colorings if len(set(f)) > 1][:1]:
                reads = [(f[c.under_in], f[c.over], c.sign) for c in d.crossings]
                tables = [
                    (form.step_table(x, y, s), form.step_table(x, y, -s), Preimages(form.step_table(x, y, s)))
                    for x, y, s in reads
                ]
                orbits = form.seed_orbits(frozenset(form.block_ids[x][y] for x, y, _ in reads))
                size = len(form.vector_tables.vectors)
                assert_kernel_is_solve(kernel, d.plan, size, tables, orbits, (d.name, form.name, f))


def free_loops(n):
    """The unlink of n components drawn as n free loops: n seeds."""
    return LinkDiagram(f"O{n}", n, [], [[a] for a in range(n)]).validate()


def clasp_chain(n):
    """n components, with a seed at arc a of component a: components 0, 1
    and n - 1 are free loops, and for 2 <= a <= n - 2 component a is the
    arcs a and n + a - 2, each passing under arc a + 1 into the other.
    So seed a + 1 derives arc n + a - 2 and checks the other crossing,
    and every part of a deep kernel takes derived arcs as well as seeds."""
    crossings, components = [], [[0], [1]]
    for a in range(2, n - 1):
        b = n + a - 2
        crossings += [Crossing(1, a, a + 1, b), Crossing(1, b, a + 1, a)]
        components.append([a, b])
    return LinkDiagram(f"C{n}", 2 * n - 3, crossings, components + [[n - 1]]).validate()


def test_the_kernel_runs_plans_of_every_depth():
    """Plans past MAX_KERNEL_SEEDS run on chained parts, with the
    reference's counts, solutions, order, weights and limits.  At size 2
    n free loops have 2^n solutions, too many to list, so that size runs
    on clasp chains instead: with the table (a, b) -> a xor b at one
    crossing of each clasp and (a, b) -> a at the other, arcs 3 to n - 1
    must be 0, which leaves 8 solutions."""
    one = ([(0, 3)], [[(0, 2)]])
    two = ([(0, 2), (1, 1)], [[(0, 1), (1, 3)], [(1, 2)]])
    xor, keep = [[0, 1], [1, 0]], [[0, 0], [1, 1]]
    cases = [(free_loops(n), 1, one, []) for n in (19, 20, 21, 40, 41, 300)]
    cases += [(clasp_chain(n), 2, two, [(xor, xor), (keep, keep)] * (n - 3)) for n in (19, 20, 21, 40, 41)]
    for d, size, orbits, tables in cases:
        assert [seed for seed, _ in d.plan] == list(range(len(d.components)))
        assert_kernel_is_solve(d.kernel, d.plan, size, tables, orbits, (d.name, size))
    chain = clasp_chain(41)
    assert chain.kernel(2, [(xor, xor), (keep, keep)] * 38, None, None)[0] == 8


def test_loads_of_one_link_share_one_kernel():
    first, second = catalog.link_diagram("L6a4"), catalog.link_diagram("L6a4")
    assert first is not second
    assert first.kernel is second.kernel


def test_the_kernel_cache_holds_no_diagram(swap3):
    d = catalog.link_diagram("L7n1")
    alive = weakref.ref(d)
    result = compute_invariant(d, swap3, validate_form(swap3, FULL, 2, 2))
    del d, result
    gc.collect()
    assert alive() is None


def load_relabel():
    """perfbench/relabel.py, which relabels the benchmark's diagrams."""
    spec = importlib.util.spec_from_file_location("relabel", BENCH_DIAGRAMS.parent.parent / "relabel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shared_plans_are_the_plans_of_their_diagrams():
    """Every diagram and 8 relabellings of each, as the benchmark makes
    them, in one process: the plan read through the structure cache is
    the one propagation_plan builds for the diagram, immutable and a
    plan by check_plan, and a second copy of a relabelling shares its
    plan and kernel."""
    relabel = load_relabel()
    for base in every_diagram():
        for v in range(8):
            d, twin = (relabel.relabel_diagram(base, relabel.rng_for(1, v, base.name)) for _ in "ab")
            for e in (base, d):
                assert e.plan == propagation_plan(e), (e.name, v)
                assert isinstance(e.plan, tuple) and all(isinstance(steps, tuple) for _, steps in e.plan)
                check_plan(e)
            assert twin.plan is d.plan and twin.kernel is d.kernel
    assert compile_structure.cache_info().maxsize == KERNEL_CACHE_SIZE


def test_crossing_order_is_part_of_the_structure():
    """The plan names crossings by index, so a diagram with its
    crossings reordered, equal up to canonical_key, plans afresh."""
    d = catalog.link_diagram("L6a4")
    turned = LinkDiagram("turned", d.arc_count, d.crossings[::-1], d.components).validate()
    assert canonical_key(turned) == canonical_key(d)
    compile_structure.cache_clear()
    assert turned.plan != d.plan
    assert turned.kernel is not d.kernel
    assert compile_structure.cache_info().misses == 2
    assert (turned.plan, d.plan) == (propagation_plan(turned), propagation_plan(d))
    check_plan(turned)


def test_plans_of_at_most_max_kernel_seeds_have_no_parts():
    """So their kernels keep every name a fast local, with no closure."""
    for d in every_diagram() + [free_loops(n) for n in range(1, MAX_KERNEL_SEEDS + 1)]:
        assert len(d.plan) <= MAX_KERNEL_SEEDS
        assert "def part" not in kernel_source(d.plan), d.name
    deeper = kernel_source(free_loops(2 * MAX_KERNEL_SEEDS + 1).plan)
    assert deeper.count("def part") == 2


class Hostile(int):
    """An int that formats and prints as a line of code."""

    def __format__(self, spec):
        return "0\nimport os"

    __str__ = __repr__ = lambda self: "0\nimport os"


def test_kernel_source_reads_no_text_from_the_diagram(swap3):
    d = catalog.link_diagram("L7n1")
    hostile = LinkDiagram(
        "hostile",
        Hostile(d.arc_count),
        [Crossing(c.sign, *map(Hostile, (c.under_in, c.over, c.under_out))) for c in d.crossings],
        [list(map(Hostile, comp)) for comp in d.components],
    )
    # built afresh: Hostile ints hash and compare as ints, so hostile.plan
    # may be the plan of d, shared through the structure cache
    plan = propagation_plan(hostile)
    assert any(isinstance(a, Hostile) for _, steps in plan for _, _, *arcs in steps for a in arcs)
    assert kernel_source(plan) == kernel_source(d.plan)
    tables = _quandle_tables(d, swap3)
    assert compile_plan(plan)(3, tables, None, None) == solve(d.plan, 3, tables, None)
