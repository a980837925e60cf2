"""form_violations against the brute-force sweep in axiom_oracle.

form_violations decides axioms (ii) and (iii) on unit vectors only.
Each case here checks that the same axiom instances (axiom and x, y, z)
fail under both, and that form_violations' witnesses, in order, are a
subsequence of the sweep's uncapped list.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from axiom_oracle import brute_force_violations
from qbeads import catalog
from qbeads.field import PrimeField
from qbeads.forms import form_violations
from qbeads.quandle import Quandle, alexander_quandle, trivial_quandle

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


@st.composite
def block_families(draw):
    """A quandle and a block family, mostly built from one alternating
    matrix so that valid families turn up as well as invalid ones."""
    quandle = draw(st.sampled_from(QUANDLES))
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([1, 2]))
    entry = st.integers(0, p - 1)
    upper = [draw(entry) for _ in range(n * (n - 1) // 2)]
    A = [[0] * n for _ in range(n)]
    for (i, j), a in zip(itertools.combinations(range(n), 2), upper):
        A[i][j], A[j][i] = a, (-a) % p
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    m = quandle.order
    blocks = [
        [draw(st.one_of(st.just(A), st.just([[0] * n for _ in range(n)]), matrix)) for _ in range(m)]
        for _ in range(m)
    ]
    return quandle, blocks, p, n


@settings(max_examples=40, deadline=None)
@given(block_families())
def test_random_block_families(case):
    quandle, blocks, p, n = case
    assert_agrees(quandle, blocks, p, n)
