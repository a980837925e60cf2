"""form_violations against the references in axiom_oracle.

form_violations decides axioms (ii) and (iii) on unit vectors only.
Each brute-force case here checks that the same axiom instances (axiom
and x, y, z) fail under both, and that form_violations' witnesses, in
order, are a subsequence of the sweep's uncapped list.  The memo cases
check that deciding each instance once per distinct tuple of blocks
gives exactly the list the per-instance loop gives.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from axiom_oracle import brute_force_violations, per_instance_violations
from test_quandle import sym3
from qbeads import catalog, forms
from qbeads.field import PrimeField, VectorTables
from qbeads.forms import form_violations
from qbeads.quandle import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    symplectic_quandle,
    trivial_quandle,
)

SWAP3 = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]


def failing_instances(lines):
    """The axiom instances named by witness lines: the text before ", a="."""
    return {line.split(", a=")[0] for line in lines}


def assert_agrees(quandle, blocks, p, n):
    """Same verdict as the oracle on every axiom instance, and every
    witness is an oracle line."""
    field = PrimeField(p)
    expected = brute_force_violations(quandle, blocks, field, n)
    got = form_violations(quandle, blocks, field, n, cap=len(expected) + 1)
    assert failing_instances(got) == failing_instances(expected)
    remaining = iter(expected)
    for line in got:
        assert line in remaining, f"{line!r} is not an oracle witness (or is out of order)"
    # the default cap keeps the first 20 and counts the rest
    capped = form_violations(quandle, blocks, field, n)
    if len(got) > 20:
        assert capped == got[:20] + [f"... and {len(got) - 20} more violations"]
    else:
        assert capped == got
    return got


def mutants(blocks, p):
    """Every single-entry mutant: one matrix entry raised by one mod p."""
    m, n = len(blocks), len(blocks[0][0])
    for x, y, i, j in itertools.product(range(m), range(m), range(n), range(n)):
        grid = [[[list(r) for r in B] for B in row] for row in blocks]
        grid[x][y][i][j] = (grid[x][y][i][j] + 1) % p
        yield (x, y, i, j), grid


@pytest.mark.parametrize("form_name", ["swap3-partial", "swap3-full", "swap3-zero"])
def test_catalog_form_mutants(form_name):
    form = catalog.load_form(form_name)
    assert assert_agrees(form.quandle, form.blocks, 2, 2) == []
    caught = 0
    for _where, grid in mutants(form.blocks, 2):
        caught += bool(assert_agrees(form.quandle, grid, 2, 2))
    assert caught > 0


@pytest.mark.parametrize(
    "p, n, B, entries",
    [
        (3, 2, ((0, 1), (2, 0)), [(0, 1, 0, 0), (2, 2, 0, 1), (1, 2, 1, 1), (0, 0, 1, 0)]),
        (
            2,
            3,
            ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
            [(0, 1, 0, 0), (2, 2, 0, 2), (1, 0, 2, 1), (2, 0, 1, 1)],
        ),
    ],
)
def test_constant_alternating_forms_and_mutants(p, n, B, entries):
    q = Quandle.from_table(SWAP3, name="swap3")
    blocks = [[B] * 3 for _ in range(3)]
    assert assert_agrees(q, blocks, p, n) == []
    all_mutants = dict(mutants(blocks, p))
    for where in entries:
        assert assert_agrees(q, all_mutants[where], p, n)


QUANDLES = [
    Quandle.from_table(SWAP3, name="swap3"),
    alexander_quandle(3, 2),
    trivial_quandle(2),
]


def block_strategy(draw, p, n):
    """Blocks over F_p: one alternating matrix drawn here, the zero
    matrix or any matrix, so that valid families turn up as well as
    invalid ones."""
    entry = st.integers(0, p - 1)
    upper = [draw(entry) for _ in range(n * (n - 1) // 2)]
    A = [[0] * n for _ in range(n)]
    for (i, j), a in zip(itertools.combinations(range(n), 2), upper):
        A[i][j], A[j][i] = a, (-a) % p
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.one_of(st.just(A), st.just([[0] * n for _ in range(n)]), matrix)


@st.composite
def block_families(draw):
    """A quandle and a block family, mostly built from one alternating
    matrix so that valid families turn up as well as invalid ones."""
    quandle = draw(st.sampled_from(QUANDLES))
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([1, 2]))
    block = block_strategy(draw, p, n)
    m = quandle.order
    blocks = [[draw(block) for _ in range(m)] for _ in range(m)]
    return quandle, blocks, p, n


@settings(max_examples=40, deadline=None)
@given(block_families())
def test_random_block_families(case):
    quandle, blocks, p, n = case
    assert_agrees(quandle, blocks, p, n)


MEMO_QUANDLES = QUANDLES + [
    alexander_quandle(5, 2),
    conjugation_quandle(sym3(), name="conj(S3)"),
    symplectic_quandle(2, 2, [[0, 1], [1, 0]]),
]


@st.composite
def memo_families(draw):
    """A quandle and a block family of one of three kinds: every block
    drawn on its own, one block per orbit pair, or such an orbit-constant
    family with one entry raised by one mod p."""
    quandle = draw(st.sampled_from(MEMO_QUANDLES))
    p, n = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]))
    block = block_strategy(draw, p, n)
    m = quandle.order
    kind = draw(st.sampled_from(["random", "orbit-constant", "mutant"]))
    if kind == "random":
        blocks = [[draw(block) for _ in range(m)] for _ in range(m)]
    else:
        orbit = quandle.orbits()
        per_pair = {}
        for x, y in itertools.product(range(m), repeat=2):
            if (orbit[x], orbit[y]) not in per_pair:
                per_pair[orbit[x], orbit[y]] = draw(block)
        blocks = [[[list(r) for r in per_pair[orbit[x], orbit[y]]] for y in range(m)] for x in range(m)]
        if kind == "mutant":
            x, y = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            blocks[x][y][i][j] = (blocks[x][y][i][j] + 1) % p
    return quandle, blocks, p, n


@settings(max_examples=150, deadline=None)
@given(memo_families())
def test_memo_matches_per_instance_loop(case):
    quandle, blocks, p, n = case
    field = PrimeField(p)
    for cap in (10**9, 20):
        expected = per_instance_violations(quandle, blocks, field, n, cap=cap)
        assert form_violations(quandle, blocks, field, n, cap=cap) == expected


def test_axioms_decided_once_per_block_tuple(monkeypatch):
    """A constant family is decided by one call per axiom over one
    table; a valid family with r orbits by at most r^3 calls per axiom."""
    calls, tables = [], []
    failures, bilinear_table = forms.axiom_failures, VectorTables.bilinear_table

    def counted_failures(kind, *args):
        calls.append(kind)
        return failures(kind, *args)

    def counted_table(self, B):
        tables.append(B)
        return bilinear_table(self, B)

    monkeypatch.setattr(forms, "axiom_failures", counted_failures)
    monkeypatch.setattr(VectorTables, "bilinear_table", counted_table)
    q = alexander_quandle(5, 2)
    B = ((0, 1), (2, 0))
    assert form_violations(q, [[B] * 5 for _ in range(5)], PrimeField(3), 2) == []
    assert calls == ["ii", "iii"]
    assert tables == [B]

    for name in ("swap3-partial", "swap3-full", "swap3-zero"):
        form = catalog.load_form(name)
        r = len(set(form.quandle.orbits()))
        del calls[:]
        assert form_violations(form.quandle, form.blocks, form.field, form.n) == []
        assert 0 < calls.count("ii") <= r**3 and 0 < calls.count("iii") <= r**3
