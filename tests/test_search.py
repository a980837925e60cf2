import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import qbeads.forms
from qbeads.errors import InputError
from qbeads.field import PrimeField, VectorTables
from qbeads.forms import BilinearForm, axiom_failures, form_violations, format_form, format_forms, parse_form, zero_form
from qbeads import search
from qbeads.quandle import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    symplectic_quandle,
    trivial_quandle,
)
from qbeads.search import (
    DEFAULT_SPACE_BOUND,
    MODES,
    SearchResult,
    run_search,
    search_forms,
    verify_search_output,
)

from search_oracle import alternating_matrices, naive_space_estimate, reference_search
from quandle_ops import op
from test_quandle import sym3

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


@pytest.mark.parametrize(
    "quandle, p, n",
    [
        (Quandle.from_table(SWAP3, name="swap3"), 3, 2),
        (conjugation_quandle(sym3(), name="conj(S3)"), 2, 2),
    ],
    ids=["swap3-p3n2", "conjS3-p2n2"],
)
def test_verifying_a_search_equals_checking_each_form(quandle, p, n):
    """verify_search_output decides each (kind, four matrices) tuple
    once for all the forms; with one entry of every other form
    mutated, its report equals form_violations run on each form alone,
    witness and summary lines included."""
    rng = random.Random(7)
    field = PrimeField(p)
    forms = run_search(quandle, p, n).forms
    m = quandle.order
    for i in range(0, len(forms), 2):
        blocks = [list(row) for row in forms[i].blocks]
        x, y = rng.randrange(m), rng.randrange(m)
        blocks[x][y] = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        blocks = tuple(map(tuple, blocks))
        forms[i] = BilinearForm(quandle, field, n, blocks)
    alone = [(i, form_violations(quandle, f.blocks, field, n)) for i, f in enumerate(forms)]
    alone = [(i, v) for i, v in alone if v]
    assert verify_search_output(SearchResult(forms=forms)) == alone
    lines = [line for _, v in alone for line in v]
    assert any(line.startswith("axiom (i) ") for line in lines)
    assert any(line.startswith("axiom (ii) ") for line in lines)
    assert any(line.startswith("... and ") for line in lines)


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
    assert res.space_estimate == 16
    assert verify_search_output(res) == []


def test_space_guard():
    # six one-element orbits at p=3, n=3: 27 alternating matrices on each
    # diagonal slot and two candidates on each of the 30 others
    q = trivial_quandle(6)
    assert 27 ** 6 * 2 ** 30 > DEFAULT_SPACE_BOUND
    with pytest.raises(InputError) as e:
        run_search(q, 3, 3)
    assert "4.16e+17" in str(e.value)
    assert "allow_large" in str(e.value) and "--allow-large" in str(e.value)
    # swap3 at p=2, n=2 passes the guard: 16 leaves at most
    assert len(run_search(Quandle.from_table(SWAP3), 2, 2).forms) == 7


def test_space_guard_formats_estimates_past_float_range():
    # 40 one-element orbits at p=2, n=2 reach 2^40 * 2^1560 leaves, which
    # no float holds
    status = SearchResult()
    with pytest.raises(InputError, match=r"estimate 4\.45e\+481 exceeds"):
        list(search_forms(trivial_quandle(40), 2, 2, status=status))
    assert status.space_estimate == 2 ** 1600


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
    """A search builds no VectorTables; the forms it emits build one on
    first use, which they share through their field."""
    built = []
    init = VectorTables.__init__

    def counted(self, field, n):
        built.append((field.p, n))
        init(self, field, n)

    monkeypatch.setattr(VectorTables, "__init__", counted)
    res = run_search(Quandle.from_table(SWAP3), 2, 2, allow_large=True)
    assert len(res.forms) == 7
    assert built == []
    assert all(f.vector_tables is res.forms[0].vector_tables for f in res.forms)
    assert built == [(2, 2)]


def test_refused_search_builds_no_tables(monkeypatch):
    built = []
    original = VectorTables.bilinear_table

    def counted(self, B):
        built.append(B)
        return original(self, B)

    monkeypatch.setattr(VectorTables, "bilinear_table", counted)
    status = SearchResult()
    with pytest.raises(InputError) as e:
        list(search_forms(trivial_quandle(6), 3, 3, status=status))
    assert "allow_large" in str(e.value)
    assert status.space_estimate == 27 ** 6 * 2 ** 30
    assert built == []


def test_space_estimate_counts_the_widest_slot():
    """A^d * min(2, A)^(r(r-1)) for A alternating matrices, r orbits and
    d free diagonal slots: r, or 1 in constant-diagonal mode."""
    swap3 = Quandle.from_table(SWAP3)  # r = 2
    for (p, n), A in (((2, 2), 2), ((3, 3), 27)):
        for mode, d in (("all", 2), ("alternating-only", 2), ("constant-diagonal", 1)):
            res = run_search(swap3, p, n, mode=mode, limit=0)
            assert res.space_estimate == A ** d * 2 ** 2
    # one element: the only slot is diagonal, and takes the 3 alternating
    # matrices whatever the mode
    for mode in MODES:
        assert run_search(trivial_quandle(1), 3, 2, mode=mode).space_estimate == 3


def test_search_deeper_than_the_recursion_limit():
    # 20 orbits make 400 slots: a call per slot would pass the limit.  At
    # n = 1 the zero matrix is the only candidate, so one leaf
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        res = run_search(trivial_quandle(20), 2, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert (res.space_estimate, len(res.forms), res.nodes, res.complete) == (1, 1, 400, True)


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
            table[perm[x]][perm[y]] = perm[op(q, x, y)]
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
    assert len(res.forms) <= res.space_estimate <= naive_space_estimate(q.order, p, n, mode)
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


# The five benchmark searches: quandle, p, n, mode, then the nodes and
# the forms.
BENCHMARK_SEARCHES = [
    ("swap3", 2, 2, "all", 21, 7),
    ("swap3", 3, 2, "alternating-only", 52, 17),
    ("swap3", 2, 3, "alternating-only", 333, 85),
    ("alexander(4,3)", 2, 2, "all", 21, 7),
    ("symplectic(2,2)", 2, 2, "all", 21, 7),
]


def _benchmark_quandle(name):
    if name == "symplectic(2,2)":
        return symplectic_quandle(2, 2, [[0, 1], [1, 0]])
    return QUANDLES[name]


@pytest.mark.parametrize(
    "name,p,n,mode,nodes,count",
    BENCHMARK_SEARCHES,
    ids=[f"{name}-{p}-{n}-{mode}" for name, p, n, mode, *_ in BENCHMARK_SEARCHES],
)
def test_each_axiom_tuple_is_decided_once(monkeypatch, name, p, n, mode, nodes, count):
    """The search decides every check by its closed-form rule on matrix
    ids, with no call to axiom_failures, and keeps the nodes and forms
    of deciding every instance by the unit-vector check."""
    calls = []
    for module in (qbeads.forms, search):
        monkeypatch.setattr(module, "axiom_failures", lambda *args: calls.append(args), raising=False)
    res = run_search(_benchmark_quandle(name), p, n, mode=mode, allow_large=True)
    assert res.complete
    assert (res.nodes, len(res.forms)) == (nodes, count)
    assert calls == []
    monkeypatch.undo()
    assert verify_search_output(res) == []


CLOSED_FORM_SIZES = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize(
    "p,n", CLOSED_FORM_SIZES, ids=[f"p{p}n{n}-alternating" for p, n in CLOSED_FORM_SIZES]
)
def test_closed_forms_agree_with_axiom_failures(p, n):
    """The searcher's verdict on a check (M, S, T) is that both (ii)
    and (iii) pass under the unit-vector check, with the out blocks the
    orbit search reads (M for (ii), S for (iii)), on every triple of
    alternating matrices."""
    field = PrimeField(p)
    q = trivial_quandle(1)
    searcher = search._Searcher(q, field, n, False, *search._orbit_slots(q))
    vector_tables = field.vector_tables(n)
    tables = [vector_tables.bilinear_table(B) for B in alternating_matrices(field, n)]

    def passes(kind, M, S, T):
        out = M if kind == "ii" else S
        failures = axiom_failures(kind, tables[M], tables[S], tables[T], tables[out], vector_tables)
        return next(failures, None) is None

    verdicts = set()
    for M, S, T in itertools.product(range(len(tables)), repeat=3):
        verdict = searcher.holds([(0, 1, 2)], [M, S, T])
        assert verdict == (passes("ii", M, S, T) and passes("iii", M, S, T)), (M, S, T)
        verdicts.add(verdict)
    assert verdicts == {True, False}


MULTIPLE_SIZES = [(3, 3), (5, 2), (2, 4)]


@pytest.mark.parametrize("p,n", MULTIPLE_SIZES, ids=[f"p{p}n{n}" for p, n in MULTIPLE_SIZES])
def test_multiples_are_the_scaled_matrices(p, n):
    """_multiples(p, M) is the set of ids of k*M, k in F_p, for every
    nonzero alternating id M, found here by decoding every matrix."""
    field = PrimeField(p)
    matrices = alternating_matrices(field, n)
    ids = {B: k for k, B in enumerate(matrices)}
    for M, B in enumerate(matrices[1:], start=1):
        scaled = {ids[tuple(tuple(k * b % p for b in row) for row in B)] for k in range(p)}
        assert search._multiples(p, M) == scaled, M


def test_forms_share_decoded_rows():
    """grid decodes each block as the alternating matrix of its slot's
    id, and two grids whose rows read the same slot ids share that row
    object, within one search's forms as across calls."""
    q, p, n = QUANDLES["swap3"], 3, 2
    field = PrimeField(p)
    slots, pair_slot = search._orbit_slots(q)
    searcher = search._Searcher(q, field, n, False, slots, pair_slot)
    rows = {}
    for assigned in itertools.product(range(field.alternating_count(n)), repeat=len(slots)):
        grid = searcher.grid(list(assigned))
        for x, row in enumerate(grid):
            ids = tuple(assigned[k] for k in pair_slot[x])
            assert row == tuple(field.alternating_matrix(n, k) for k in ids)
            assert rows.setdefault(ids, row) is row
    ids = {field.alternating_matrix(n, k): k for k in range(field.alternating_count(n))}
    rows = {}
    forms = run_search(q, p, n).forms
    for form in forms:
        for row in form.blocks:
            assert rows.setdefault(tuple(ids[B] for B in row), row) is row
    # the forms differ, yet share rows
    assert len(rows) < len(forms) * q.order


TEXT_SEARCHES = {
    # 17 forms
    "swap3-p3n2": (lambda: QUANDLES["swap3"], 3, 2),
    "conjS3-p2n2": (lambda: conjugation_quandle(sym3(), name="conj(S3)"), 2, 2),
}


@pytest.mark.parametrize("name", TEXT_SEARCHES)
def test_formatting_forms_together_gives_each_its_own_text(name):
    """format_forms shares one memo of block texts across a search's
    forms, and gives each form the text format_form gives it alone,
    which parse_form reads back to the same blocks."""
    make, p, n = TEXT_SEARCHES[name]
    q = make()
    forms = run_search(q, p, n).forms
    texts = format_forms(forms)
    assert texts == [format_form(form) for form in forms]
    assert [parse_form(text, q).blocks for text in texts] == [form.blocks for form in forms]
    # the memo is keyed by block, not by pair: some pair takes
    # different blocks in different forms
    m = q.order
    assert any(len({form.blocks[x][y] for form in forms}) > 1 for x in range(m) for y in range(m))


def test_first_form_of_a_huge_slot_costs_little():
    """A one-element quandle at p=2, n=8 has one slot of 2^28
    alternating matrices, and passes the guard; the first form, the
    zero one, comes without a list of them."""
    tracemalloc.start()
    try:
        form = next(search_forms(trivial_quandle(1), 2, 8, limit=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.blocks == ((PrimeField(2).zero_matrix(8),),)
    assert peak < 4 * 2**20


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
