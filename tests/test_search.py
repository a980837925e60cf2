import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qbeads.errors import InputError
from qbeads.field import PrimeField, VectorTables
from qbeads.forms import axiom_failures, form_violations, zero_form
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

from search_oracle import all_matrices, reference_search

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
    # (i) makes every diagonal block alternating, and B[x][y] is 0 or
    # B[y][y] (see the search module docstring), so every block of every
    # valid form is alternating
    assert sets["alternating-only"] == sets["all"]
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
    res = run_search(q, 2, 2, time_budget=1e-9, allow_large=True)
    assert not res.complete
    assert res.forms == []


@pytest.mark.parametrize("budget", [float("nan"), -1, 0.0])
def test_time_budget_must_be_positive(budget):
    with pytest.raises(InputError, match="time budget must be a positive number"):
        run_search(Quandle.from_table(SWAP3), 2, 2, time_budget=budget, allow_large=True)


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
    zero = PrimeField(p).zero_matrix(n)
    for f in res.forms:
        assert all(
            f.blocks[x][y] == f.blocks[orbit[x]][orbit[y]]
            for x in range(q.order)
            for y in range(q.order)
        )
        assert all(
            f.blocks[x][y] in (zero, f.blocks[y][y]) for x in range(q.order) for y in range(q.order)
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
# forms and the distinct (M, S, T) of the axiom (ii) checks that reach
# axiom_failures, each of which the search decides once.
BENCHMARK_SEARCHES = [
    ("swap3", 2, 2, "all", 21, 7, 1),
    ("swap3", 3, 2, "alternating-only", 52, 17, 4),
    ("swap3", 2, 3, "alternating-only", 333, 85, 49),
    ("alexander(4,3)", 2, 2, "all", 21, 7, 1),
    ("symplectic(2,2)", 2, 2, "all", 21, 7, 1),
]


def _benchmark_quandle(name):
    if name == "symplectic(2,2)":
        return symplectic_quandle(2, 2, [[0, 1], [1, 0]])
    return QUANDLES[name]


@pytest.mark.parametrize(
    "name,p,n,mode,nodes,count,decided",
    BENCHMARK_SEARCHES,
    ids=[f"{name}-{p}-{n}-{mode}" for name, p, n, mode, *_ in BENCHMARK_SEARCHES],
)
def test_each_axiom_tuple_is_decided_once(monkeypatch, name, p, n, mode, nodes, count, decided):
    """The search runs axiom_failures once per distinct (M, S, T) that
    its closed forms leave open, afresh in every search, and its nodes
    and forms stay those of deciding every instance anew."""
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


def _closed_form_cases(p, n, matrices, kinds):
    """(kind, M, S, T, the search's verdict, axiom_failures' verdict)
    for every kind and every triple of the matrices, zero first, with
    the out block that the orbit search reads: M for (ii), S for (iii)."""
    field = PrimeField(p)
    searcher = search._Searcher(trivial_quandle(1), field, n, "all")
    searcher.matrices, searcher.tables = matrices, [None] * len(matrices)
    vector_tables = field.vector_tables(n)
    tables = [vector_tables.bilinear_table(B) for B in matrices]
    for kind in kinds:
        for M, S, T in itertools.product(range(len(matrices)), repeat=3):
            out = M if kind == "ii" else S
            failures = axiom_failures(kind, tables[M], tables[S], tables[T], tables[out], vector_tables)
            yield kind, M, S, T, searcher.holds([(kind, 0, 1, 2)], [M, S, T]), next(failures, None) is None


@pytest.mark.parametrize(
    "p,n,alternating,kinds",
    [(2, 2, False, ("ii", "iii")), (3, 3, True, ("iii",))],
    ids=["p2n2-every-matrix", "p3n3-alternating"],
)
def test_closed_forms_agree_with_axiom_failures(p, n, alternating, kinds):
    """The search's verdict on a check equals the unit-vector check's
    on every (M, S, T): all 16^3 matrix triples at p=2, n=2 for both
    axioms, and all 27^3 alternating triples at p=3, n=3 for (iii),
    whose closed form decides every case."""
    field = PrimeField(p)
    matrices = list(field.alternating_matrices(n) if alternating else all_matrices(field, n))
    assert matrices[0] == field.zero_matrix(n)
    cases = list(_closed_form_cases(p, n, matrices, kinds))
    assert len(cases) == len(kinds) * len(matrices) ** 3
    wrong = [case for case in cases if case[4] != case[5]]
    assert wrong == []
    # both verdicts occur for every kind
    assert {(kind, ok) for kind, *_, ok in cases} == {(kind, ok) for kind in kinds for ok in (True, False)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_swap3_at_n2_has_2p2_minus_1_forms(p):
    """swap3 at n = 2 has 1 + 4(p-1) + 2(p-1)^2 = 2p^2 - 1 forms.

    Its orbits are A = {0, 1} and B = {2}.  Every alternating 2x2
    matrix is a multiple of J = [[0, 1], [p-1, 0]]: write B[A][A] = αJ
    and B[B][B] = βJ.  The search's corollary gives B[A][B] in {0, βJ}
    and B[B][A] in {0, αJ}.  On multiples of J, where c^T J c = 0, both
    (ii) and (iii) at (x, y, z) hold exactly when B[x][y] = 0 or
    B[x][z] = B[y][z]; at the orbit triples (A, B, A) and (B, A, B)
    this requires B[B][A] = αJ when B[A][B] != 0, and B[A][B] = βJ when
    B[B][A] != 0.  So:

    - α = β = 0 gives the zero form: 1;
    - exactly one of α, β nonzero gives 2 forms each, the one
      off-diagonal block that may be nonzero being 0 or not: 4(p-1);
    - α, β != 0 allows both off-diagonal blocks zero, or B[A][B] = βJ
      together with B[B][A] = αJ: 2(p-1)^2.
    """
    res = run_search(QUANDLES["swap3"], p, 2, allow_large=True)
    assert res.complete
    assert len(res.forms) == 1 + 4 * (p - 1) + 2 * (p - 1) ** 2 == 2 * p * p - 1
    assert verify_search_output(res) == []
