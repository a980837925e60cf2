"""Forms and bead counts against the bead quandle X x F_p^n."""

import itertools

import pytest

from qbeads import catalog
from qbeads.coloring import enumerate_xcolorings
from qbeads.field import PrimeField
from qbeads.forms import constant_form, form_violations
from qbeads.invariant import InvariantPolynomial, compute_invariant
from qbeads.quandle import Quandle, quandle_violations, trivial_quandle
from qbeads.search import run_search

from bead_quandle import bead_table, fibre_counts, pairing, vectors
from test_inner import conj_s3, diagrams


def mutants(blocks, p):
    """Every family that differs from blocks in one matrix entry, by +1."""
    m, n = len(blocks), len(blocks[0][0])
    for x, y, i, j in itertools.product(range(m), range(m), range(n), range(n)):
        grid = [[[list(r) for r in B] for B in row] for row in blocks]
        grid[x][y][i][j] = (grid[x][y][i][j] + 1) % p
        yield grid


def assert_bead_quandle_iff_valid(quandle, families, p, n):
    """On each family, X x F_p^n is a quandle exactly when the form
    axioms hold; returns how many families were valid."""
    valid = 0
    for blocks in families:
        is_form = not form_violations(quandle, blocks, PrimeField(p), n)
        is_quandle = not quandle_violations(bead_table(quandle.table, blocks, p, n))
        assert is_form == is_quandle, blocks
        valid += is_form
    return valid


def test_every_family_on_trivial2_at_p2_n2():
    # alternating diagonal blocks, so axiom (i) holds and (ii) and (iii)
    # decide
    q = trivial_quandle(2)
    alternating = [[[0, 0], [0, 0]], [[0, 1], [1, 0]]]
    matrices = [[[a, b], [c, d]] for a, b, c, d in itertools.product(range(2), repeat=4)]
    families = [
        [[d0, b01], [b10, d1]]
        for d0, d1 in itertools.product(alternating, repeat=2)
        for b01, b10 in itertools.product(matrices, repeat=2)
    ]
    assert len(families) == 1024
    valid = assert_bead_quandle_iff_valid(q, families, 2, 2)
    assert 0 < valid < len(families)


@pytest.mark.parametrize(
    "build, p, n, step",
    [(lambda: catalog.load_quandle("swap3"), 2, 2, 1), (conj_s3, 2, 2, 8)],
    ids=["swap3", "conj(S3)"],
)
def test_searched_forms_and_their_mutants(build, p, n, step):
    q = build()
    forms = run_search(q, p, n, allow_large=True).forms[::step]
    families = [f.blocks for f in forms]
    families += [g for f in forms for g in itertools.islice(mutants(f.blocks, p), 0, None, step)]
    valid = assert_bead_quandle_iff_valid(q, families, p, n)
    assert valid >= len(forms) and valid < len(families)


def assert_negative_step_is_the_inverse_translation(quandle, blocks, p, n):
    """The inverse translation of X x F_p^n by (y, b) sends (x, a) to
    (x <| y, a - [a,b]_{x,y} b), x <| y the inverse translation of X:
    the negative bead step reads the same block as the positive one."""
    vecs = vectors(p, n)
    index = {v: i for i, v in enumerate(vecs)}
    inv = Quandle.from_table(bead_table(quandle.table, blocks, p, n)).inv_table
    for x, y in itertools.product(range(quandle.order), repeat=2):
        for (i, a), (j, b) in itertools.product(enumerate(vecs), repeat=2):
            s = pairing(a, blocks[x][y], b, p)
            stepped = tuple((ai - s * bi) % p for ai, bi in zip(a, b))
            expected = quandle.inv_table[x][y] * len(vecs) + index[stepped]
            assert inv[x * len(vecs) + i][y * len(vecs) + j] == expected, (blocks, x, y, a, b)


def test_negative_step_is_the_inverse_translation():
    # the valid families of the two tests above, and searched forms at
    # p = 3, where a - s b and a + s b differ
    q = trivial_quandle(2)
    alternating = [[[0, 0], [0, 0]], [[0, 1], [1, 0]]]
    matrices = [[[a, b], [c, d]] for a, b, c, d in itertools.product(range(2), repeat=4)]
    field = PrimeField(2)
    checked = 0
    for d0, d1 in itertools.product(alternating, repeat=2):
        for b01, b10 in itertools.product(matrices, repeat=2):
            blocks = [[d0, b01], [b10, d1]]
            if not form_violations(q, blocks, field, 2):
                assert_negative_step_is_the_inverse_translation(q, blocks, 2, 2)
                checked += 1
    swap3 = catalog.load_quandle("swap3")
    for quandle, p, step in (
        (swap3, 2, 1),
        (conj_s3(), 2, 1),
        (swap3, 3, 1),
        (q, 3, 1),
        (conj_s3(), 3, 10),
    ):
        for form in run_search(quandle, p, 2, allow_large=True).forms[::step]:
            assert_negative_step_is_the_inverse_translation(quandle, form.blocks, p, 2)
            checked += 1
    assert checked == 7 + 7 + 33 + 17 + 17 + 13


def small_diagrams():
    small = [d for d in diagrams(ladder=False) if d.arc_count <= 5]
    assert len(small) == 12
    return small


def fibre_polynomial(d, form):
    """sum over X-colorings f of u^(colorings by X x F_p^n over f)."""
    size = form.field.p**form.n
    bead = Quandle.from_table(bead_table(form.quandle.table, form.blocks, form.field.p, form.n))
    poly = InvariantPolynomial()
    counts = fibre_counts(enumerate_xcolorings(d, bead), size)
    for f in enumerate_xcolorings(d, form.quandle):
        poly.add_exponent(counts.get(f, 0))
    return poly


def forms_at_p2_n2():
    swap3 = catalog.load_quandle("swap3")
    yield from (catalog.load_form(f) for f in ("swap3-full", "swap3-partial", "swap3-zero"))
    yield constant_form(conj_s3(), 2, 2, [[0, 1], [1, 0]])
    # non-constant forms on conj(S3), which has three orbits
    yield from run_search(conj_s3(), 2, 2, allow_large=True).forms[1::4]
    yield from run_search(swap3, 2, 2, allow_large=True).forms


def test_polynomial_is_the_fibre_count_of_the_bead_quandle():
    for form in forms_at_p2_n2():
        for d in small_diagrams():
            got = compute_invariant(d, form.quandle, form).polynomial
            assert got == fibre_polynomial(d, form), (d.name, form.blocks)
