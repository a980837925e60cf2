import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from qbeads.errors import AxiomError, InputError
from qbeads.field import PrimeField
from qbeads.forms import (
    BilinearForm,
    constant_form,
    form_violations,
    format_form,
    parse_form,
    validate_form,
    zero_form,
)
from qbeads.quandle import Quandle, trivial_quandle

from field_ops import bilinear_eval, scalar_mul, vec_add
from quandle_ops import op

SWAP3 = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]
S = [[0, 1], [1, 0]]
Z = [[0, 0], [0, 0]]
PARTIAL = [[S, S, Z], [S, S, Z], [Z, Z, Z]]
FULL = [[S, S, Z], [S, S, Z], [Z, Z, S]]


@pytest.fixture(scope="module")
def swap3():
    return Quandle.from_table(SWAP3, name="swap3")


def test_fixture_families_validate(swap3):
    for blocks in (PARTIAL, FULL):
        assert form_violations(swap3, blocks, PrimeField(2), 2) == []
    validate_form(swap3, PARTIAL, 2, 2, name="partial")
    validate_form(swap3, FULL, 2, 2, name="full")


def test_zero_and_constant(swap3):
    z = zero_form(swap3, 2, 2)
    assert all(all(B == ((0, 0), (0, 0)) for B in row) for row in z.blocks)
    c = constant_form(swap3, 2, 2, S)
    assert form_violations(swap3, c.blocks, PrimeField(2), 2) == []


def test_eval_and_table(swap3):
    f = validate_form(swap3, PARTIAL, 2, 2)
    ev = partial(bilinear_eval, f.field)
    assert ev(f.blocks[0][1], (1, 0), (0, 1)) == 1
    assert ev(f.blocks[2][2], (1, 0), (0, 1)) == 0
    t = f.eval_table()
    vs = f.field.all_vectors(2)
    for x in range(3):
        for y in range(3):
            for i, u in enumerate(vs):
                for j, v in enumerate(vs):
                    assert t[x][y][i][j] == ev(f.blocks[x][y], u, v)


def test_single_entry_mutations_are_caught(swap3):
    """Flipping one matrix entry of the first family must either break
    an axiom (the usual case) or yield another valid family; both
    outcomes are decided by the exhaustive checker."""
    field = PrimeField(2)
    caught = 0
    valid = 0
    for bx, by, r, c in itertools.product(range(3), range(3), range(2), range(2)):
        blocks = [[[list(row) for row in B] for B in brow] for brow in PARTIAL]
        blocks[bx][by][r][c] ^= 1
        msgs = form_violations(swap3, blocks, field, 2)
        if msgs:
            caught += 1
        else:
            valid += 1
    assert caught + valid == 36
    # the family is rigid enough that almost every mutation is detected
    assert caught >= 33


def test_axiom_one_witnesses(swap3):
    blocks = [[list(map(list, B)) for B in row] for row in PARTIAL]
    blocks[0][0] = [[1, 0], [0, 0]]  # nonzero diagonal entry
    msgs = form_violations(swap3, blocks, PrimeField(2), 2)
    assert any("(i)" in m for m in msgs)


def test_axiom_cap_summarises(swap3):
    blocks = [[[[1, 1], [1, 1]] for _ in range(3)] for _ in range(3)]
    msgs = form_violations(swap3, blocks, PrimeField(2), 2, cap=5)
    assert len(msgs) == 6
    assert "more" in msgs[-1]


def test_shape_errors(swap3):
    with pytest.raises(InputError):
        form_violations(swap3, [[Z, Z], [Z, Z]], PrimeField(2), 2)
    with pytest.raises(InputError):
        form_violations(swap3, [[[[0]], [[0]], [[0]]]] * 3, PrimeField(2), 2)
    with pytest.raises(AxiomError):
        validate_form(swap3, [[[[1, 0], [0, 1]]] * 3] * 3, 2, 2)


def test_trivial_quandle_forms_are_unconstrained_off_diagonal():
    """With x > y = x both axioms collapse; any assignment with
    alternating diagonal blocks passes on the one-element quandle."""
    q = trivial_quandle(1)
    field = PrimeField(2)
    assert form_violations(q, [[[[0]]]], field, 1) == []
    assert form_violations(q, [[[[1]]]], field, 1)  # 1x1 nonzero is not alternating


@settings(max_examples=200)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3))
def test_translation_identity(x, y, ui, vi):
    """[a,b]_{x,y} = [a + [a,b]_{x,y} b, b]_{x>y, y} follows from the
    axioms; it is what makes crossing steps invertible."""
    q = Quandle.from_table(SWAP3)
    f = validate_form(q, FULL, 2, 2)
    vs = f.field.all_vectors(2)
    a, b = vs[ui], vs[vi]
    lam = bilinear_eval(f.field, f.blocks[x][y], a, b)
    a2 = vec_add(f.field, a, scalar_mul(f.field, lam, b))
    assert bilinear_eval(f.field, f.blocks[op(q, x, y)][y], a2, b) == lam


def test_parse_format_round_trip(swap3):
    f = validate_form(swap3, PARTIAL, 2, 2, name="partial")
    text = format_form(f)
    again = parse_form(text, swap3, name="partial")
    assert again.blocks == f.blocks
    assert again.n == 2 and again.field.p == 2


def test_format_form_text(swap3):
    f = validate_form(swap3, PARTIAL, 2, 2)
    assert format_form(f) == (
        "form 3 2 2\n"
        "B 1 1\n0 1\n1 0\nB 1 2\n0 1\n1 0\nB 1 3\n0 0\n0 0\n"
        "B 2 1\n0 1\n1 0\nB 2 2\n0 1\n1 0\nB 2 3\n0 0\n0 0\n"
        "B 3 1\n0 0\n0 0\nB 3 2\n0 0\n0 0\nB 3 3\n0 0\n0 0\n"
    )
    # n = 0: every block is the empty matrix, so only the headers remain
    empty = validate_form(swap3, [[()] * 3 for _ in range(3)], 2, 0)
    assert format_form(empty) == "form 3 0 2\n" + "".join(
        f"B {x} {y}\n" for x in (1, 2, 3) for y in (1, 2, 3)
    )
    assert parse_form(format_form(empty), swap3).blocks == empty.blocks


# (text, the exact message of the InputError that parse_form raises on
# it against the one-element quandle): every error path of parse_form,
# and those of PrimeField and the vector-count guard that a header reaches
_B = "form 1 1 2\nB 1 1\n"
PARSE_ERRORS = [
    ("", "empty form file"),
    ("# only: a comment\n\n", "empty form file"),
    ("form 1 1\n", "line 1: expected header 'form m n p', got 'form 1 1'"),
    ("forms 1 1 2\n", "line 1: expected header 'form m n p', got 'forms 1 1 2'"),
    ("form 1 one 2\n", "line 1: m, n, p must be integers"),
    ("form 1 -1 2\nB 1 1\n", "line 1: matrix dimension must be >= 0, got -1"),
    ("form 1 -2 2\nB 1 1\n", "line 1: matrix dimension must be >= 0, got -2"),
    ("form 2 1 2\n", "form is indexed by 2 elements but the quandle has 1"),
    ("form 1 1 2000\n", "field order 2000 exceeds the largest supported, 1024"),
    ("form 1 1 4\n", "field order must be prime, got 4"),
    ("form 1 2 1009\nB 1 1\n0 0\n0 0\n", "F_1009^2 has more than 1024 vectors, the most supported"),
    ("form 1 1 2\nC 1 1\n0\n", "line 2: expected a 'B x y' block header"),
    ("form 1 1 2\nB 1\n0\n", "line 2: expected a 'B x y' block header"),
    ("form 1 1 2\nB 1 a\n0\n", "line 2: block labels must be integers"),
    ("form 1 1 2\nB 1 2\n0\n", "line 2: block label (1,2) out of range 1..1"),
    ("form 1 1 2\nB 0 1\n0\n", "line 2: block label (0,1) out of range 1..1"),
    (_B + "0\nB 1 1\n0\n", "line 4: duplicate block (1,1)"),
    ("form 1 2 2\nB 1 1\n0 1\n", "line 2: block (1,1) is missing matrix rows"),
    ("form 1 2 2\nB 1 1\n0 1 1\n1 0\n", "line 3: expected 2 entries, found 3"),
    (_B + "x\n", "line 3: matrix entries must be integers"),
    (_B + "2\n", "line 3: entries must lie in 0..1"),
    ("form 1 1 3\nB 1 1\n-1\n", "line 3: entries must lie in 0..2"),
    ("form 1 1 2\n", "missing blocks for pairs: [(1, 1)]"),
]


def test_parse_errors(swap3):
    q = trivial_quandle(1)
    wrong = []
    for text, message in PARSE_ERRORS:
        with pytest.raises(InputError) as e:
            parse_form(text, q)
        if str(e.value) != message:
            wrong.append((text, str(e.value), message))
    assert wrong == []
    assert parse_form("form 1 0 2\nB 1 1\n", q).n == 0
    good = format_form(validate_form(swap3, PARTIAL, 2, 2))
    # drop the final block, repeat a header, put 7 in F_2
    for text, message in [
        ("\n".join(good.strip().splitlines()[:-3]), "missing blocks for pairs: [(3, 3)]"),
        (good.replace("B 1 1", "B 1 1\nB 1 1", 1), "line 3: expected 2 entries, found 3"),
        (good.replace("0 1", "0 7", 1), "line 3: entries must lie in 0..1"),
    ]:
        with pytest.raises(InputError) as e:
            parse_form(text, swap3)
        assert str(e.value) == message
    # a well-formed file whose blocks fail an axiom
    with pytest.raises(AxiomError) as e:
        parse_form(_B + "1\n", q)
    assert str(e.value) == "form axioms fail (2 reported)"
    assert e.value.violations == [
        "axiom (i) fails at x=0, a=(1,): [a,a] = 1",
        "axiom (ii) fails at (x,y,z)=(0,0,0), a=(1,), b=(1,), c=(1,): 1 != 0",
    ]


def test_form_requires_matching_quandle(swap3):
    f = validate_form(swap3, PARTIAL, 2, 2)
    assert isinstance(f, BilinearForm)
    with pytest.raises(InputError):
        parse_form(format_form(f), trivial_quandle(2))


def test_parse_form_refuses_oversized_fields():
    q = trivial_quandle(1)
    # a 19-digit prime is refused before its primality is checked
    with pytest.raises(InputError, match="exceeds the largest supported"):
        parse_form(f"form 1 1 {2**61 - 1}\nB 1 1\n0\n", q)
    # a small prime with 1009^2 vectors is refused before any table
    with pytest.raises(InputError, match="more than 1024 vectors"):
        parse_form("form 1 2 1009\nB 1 1\n0 0\n0 0\n", q)
