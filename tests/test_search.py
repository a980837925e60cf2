import pytest
from hypothesis import given, settings, strategies as st

from qbeads.errors import InputError
from qbeads.field import PrimeField, VectorTables
from qbeads.forms import form_violations, zero_form
from qbeads import search
from qbeads.quandle import Quandle, alexander_quandle, symplectic_quandle, trivial_quandle
from qbeads.search import (
    DEFAULT_SPACE_BOUND,
    MODES,
    SearchResult,
    run_search,
    search_forms,
    verify_search_output,
)

from search_oracle import reference_search

SWAP3 = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]

QUANDLES = {
    "swap3": Quandle.from_table(SWAP3, name="swap3"),
    "trivial2": trivial_quandle(2),
    "trivial3": trivial_quandle(3),
    "alexander(3,2)": alexander_quandle(3, 2),
    "alexander(4,3)": alexander_quandle(4, 3),
}


def test_one_element_quandle():
    # a single pair slot whose diagonal must be alternating; over F_2
    # the only alternating 1x1 matrix is zero
    q = trivial_quandle(1)
    res = run_search(q, 2, 1)
    assert [f.blocks for f in res.forms] == [((((0,),),),)]
    assert res.complete
    assert res.space_estimate == 1


def test_every_emitted_form_is_valid():
    q = trivial_quandle(2)
    res = run_search(q, 2, 2)
    assert res.complete
    field = PrimeField(2)
    for f in res.forms:
        assert form_violations(q, f.blocks, field, 2) == []
    assert verify_search_output(res) == []


def test_zero_form_is_always_found():
    q = trivial_quandle(2)
    res = run_search(q, 3, 1)
    zero = zero_form(q, 3, 1)
    assert any(f.blocks == zero.blocks for f in res.forms)


def test_modes_nest():
    q = Quandle.from_table(SWAP3)
    sets = {}
    for mode in MODES:
        res = run_search(q, 2, 2, mode=mode, allow_large=True)
        assert res.complete
        sets[mode] = {f.blocks for f in res.forms}
    assert sets["alternating-only"] <= sets["all"]
    assert sets["constant-diagonal"] <= sets["all"]


def test_swap3_search_finds_the_fixture_families():
    q = Quandle.from_table(SWAP3, name="swap3")
    res = run_search(q, 2, 2, allow_large=True)
    S = ((0, 1), (1, 0))
    Z = ((0, 0), (0, 0))
    blocks = {f.blocks for f in res.forms}
    assert ((S, S, Z), (S, S, Z), (Z, Z, Z)) in blocks
    assert ((S, S, Z), (S, S, Z), (Z, Z, S)) in blocks
    assert res.space_estimate == 16 ** 9
    assert verify_search_output(res) == []


def test_space_guard():
    q = Quandle.from_table(SWAP3)
    assert 16 ** 9 > DEFAULT_SPACE_BOUND
    with pytest.raises(InputError) as e:
        run_search(q, 2, 2)
    assert "allow_large" in str(e.value)
    # explicit generous bound also works
    res = run_search(q, 2, 2, space_bound=10 ** 12)
    assert res.complete


def test_limit_stops_early():
    q = Quandle.from_table(SWAP3)
    res = run_search(q, 2, 2, limit=2, allow_large=True)
    assert len(res.forms) == 2
    assert not res.complete


def test_limit_equal_to_total_is_complete():
    q = trivial_quandle(1)
    res = run_search(q, 2, 1, limit=1)
    assert len(res.forms) == 1
    assert res.complete


def test_time_budget_marks_incomplete():
    q = Quandle.from_table(SWAP3)
    res = run_search(q, 2, 2, time_budget=0.0, allow_large=True)
    assert not res.complete
    assert res.forms == []


def test_streaming_interface():
    q = trivial_quandle(2)
    stream = search_forms(q, 2, 1)
    first = next(stream)
    assert form_violations(q, first.blocks, PrimeField(2), 1) == []


def test_bad_mode():
    with pytest.raises(InputError):
        run_search(trivial_quandle(1), 2, 1, mode="everything")


def test_search_builds_one_vector_tables(monkeypatch):
    """The forms a search emits build no tables of their own: they share
    the searcher's VectorTables through its field."""
    built = []
    init = VectorTables.__init__

    def counted(self, field, n):
        built.append((field.p, n))
        init(self, field, n)

    monkeypatch.setattr(VectorTables, "__init__", counted)
    res = run_search(Quandle.from_table(SWAP3), 2, 2, allow_large=True)
    assert len(res.forms) == 7
    assert built == [(2, 2)]
    assert all(f.vector_tables is res.forms[0].vector_tables for f in res.forms)


def test_refused_search_builds_no_tables(monkeypatch):
    built = []
    original = VectorTables.bilinear_table

    def counted(self, B):
        built.append(B)
        return original(self, B)

    monkeypatch.setattr(VectorTables, "bilinear_table", counted)
    q = Quandle.from_table(SWAP3)
    status = SearchResult()
    with pytest.raises(InputError) as e:
        list(search_forms(q, 3, 3, status=status))
    assert "allow_large" in str(e.value)
    assert status.space_estimate == (3 ** 9) ** 9
    assert built == []


def test_space_estimate_counts_the_widest_slot():
    q = Quandle.from_table(SWAP3)
    for mode, width in (("all", 16), ("constant-diagonal", 16), ("alternating-only", 2)):
        res = run_search(q, 2, 2, mode=mode, limit=0, allow_large=True)
        assert res.space_estimate == width ** 9
    # one element: the only slot is diagonal, so alternating whatever the mode
    for mode in MODES:
        assert run_search(trivial_quandle(1), 3, 2, mode=mode).space_estimate == 3


def test_negative_dimension_and_limit():
    q = trivial_quandle(2)
    with pytest.raises(InputError):
        run_search(q, 2, -1)
    with pytest.raises(InputError):
        run_search(q, 2, 1, limit=-1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("name", QUANDLES)
def test_orbit_search_matches_pair_search(name, p, n, mode):
    """One slot per orbit pair finds the forms the pair-slot search
    finds, in the same order."""
    q = QUANDLES[name]
    res = run_search(q, p, n, mode=mode, allow_large=True)
    assert res.complete
    assert [f.blocks for f in res.forms] == reference_search(q, p, n, mode)


def _relabelled(q, perm):
    m = q.order
    table = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            table[perm[x]][perm[y]] = perm[q.op(x, y)]
    return Quandle.from_table(table)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(QUANDLES)),
    pn=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    mode=st.sampled_from(MODES),
    data=st.data(),
)
def test_emitted_forms_are_orbit_constant(name, pn, mode, data):
    p, n = pn
    q = QUANDLES[name]
    q = _relabelled(q, data.draw(st.permutations(range(q.order))))
    res = run_search(q, p, n, mode=mode, allow_large=True)
    assert res.complete and res.forms
    orbit = q.orbits()
    for f in res.forms:
        assert all(
            f.blocks[x][y] == f.blocks[orbit[x]][orbit[y]]
            for x in range(q.order)
            for y in range(q.order)
        )
    assert verify_search_output(res) == []


def test_reused_status_reports_only_its_own_run():
    """A SearchResult handed to a second search starts afresh: a full
    search after a limit=2 one finds every form and counts only its own
    nodes."""
    q = Quandle.from_table(SWAP3)
    status = SearchResult()
    assert len(list(search_forms(q, 2, 2, limit=2, allow_large=True, status=status))) == 2
    assert not status.complete
    fresh = run_search(q, 2, 2, allow_large=True)
    forms = list(search_forms(q, 2, 2, allow_large=True, status=status))
    assert [f.blocks for f in forms] == [f.blocks for f in fresh.forms]
    assert len(forms) == 7
    assert status.complete
    assert (status.nodes, status.emitted) == (fresh.nodes, 7)
    assert status.forms == []  # search_forms streams; run_search collects


# The five benchmark searches: quandle, p, n, mode, then the nodes, the
# forms and the distinct (kind, four candidate matrices) tuples the
# search reaches, each of which the search decides once.
BENCHMARK_SEARCHES = [
    ("swap3", 2, 2, "all", 166, 7, 126),
    ("swap3", 3, 2, "alternating-only", 84, 17, 40),
    ("swap3", 2, 3, "alternating-only", 1208, 85, 296),
    ("alexander(4,3)", 2, 2, "all", 166, 7, 126),
    ("symplectic(2,2)", 2, 2, "all", 166, 7, 126),
]


def _benchmark_quandle(name):
    if name == "symplectic(2,2)":
        return symplectic_quandle(2, 2, [[0, 1], [1, 0]])
    return QUANDLES[name]


@pytest.mark.parametrize("name,p,n,mode,nodes,count,decided", BENCHMARK_SEARCHES)
def test_each_axiom_tuple_is_decided_once(monkeypatch, name, p, n, mode, nodes, count, decided):
    """The search runs axiom_failures once per distinct (kind, four
    tables) it reaches, afresh in every search, and its nodes and forms
    stay those of deciding every instance anew."""
    q = _benchmark_quandle(name)
    calls = []
    failures = search.axiom_failures

    def counted(kind, *tables_and_vector_tables):
        calls.append((kind, *map(id, tables_and_vector_tables[:4])))
        return failures(kind, *tables_and_vector_tables)

    monkeypatch.setattr(search, "axiom_failures", counted)
    for _ in range(2):
        del calls[:]
        res = run_search(q, p, n, mode=mode, allow_large=True)
        assert res.complete
        assert (res.nodes, len(res.forms)) == (nodes, count)
        assert len(calls) == len(set(calls)) == decided
    assert verify_search_output(res) == []


def test_checks_are_keyed_on_the_kind_and_all_four_matrices():
    """Two checks are decided apart when only their out matrix, or only
    their axiom, differs.  (In the orbit search the out slot always
    equals the (x, y) slot for (ii) and the (x, z) slot for (iii), so
    only a hand-made check list can tell the key apart from a shorter
    one.)"""
    searcher = search._Searcher(trivial_quandle(2), PrimeField(2), 1, "all")
    assert searcher.all_mats == [((0,),), ((1,),)]
    check = (0, 1, 2, 3)  # slots of B_xy, B_xz, B_yz and B_out
    assert searcher.holds([("ii", *check)], [0, 0, 0, 0])
    assert not searcher.holds([("ii", *check)], [0, 0, 0, 1])
    assert searcher.holds([("iii", *check)], [0, 1, 0, 1])
    assert not searcher.holds([("ii", *check)], [0, 1, 0, 1])
