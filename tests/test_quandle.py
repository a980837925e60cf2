import itertools
import math
from functools import partial

import pytest

import qbeads.quandle
from qbeads.errors import AxiomError, InputError
from qbeads.field import PrimeField
from qbeads.quandle import (
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    format_quandle,
    parse_quandle,
    quandle_violations,
    symplectic_quandle,
    trivial_quandle,
)

from field_ops import bilinear_eval, is_nondegenerate, scalar_mul, vec_add
from quandle_ops import inv_op, op, op_signed
from search_oracle import alternating_matrices

SWAP3 = [[0, 0, 1], [1, 1, 0], [2, 2, 2]]


# small group tables (0-based Cayley tables) for the constructor sweeps
def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def sym3():
    # permutations of 3 points, composition g∘h, indexed in a fixed order
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for g in perms:
        table.append([index[tuple(g[h[k]] for k in range(3))] for h in perms])
    return table


def dihedral4():
    # symmetries of a square as pairs (rotation, flip)
    elems = [(r, f) for f in range(2) for r in range(4)]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for r1, f1 in elems:
        row = []
        for r2, f2 in elems:
            r = (r1 + (r2 if f1 == 0 else -r2)) % 4
            row.append(index[(r, (f1 + f2) % 2)])
        table.append(row)
    return table


def quaternion8():
    # units {1,-1,i,-i,j,-j,k,-k} by multiplication
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul = {}

    def m(a, b):
        neg = a.startswith("-") ^ b.startswith("-")
        a, b = a.lstrip("-"), b.lstrip("-")
        basic = {
            ("1", "1"): "1",
            ("1", "i"): "i", ("i", "1"): "i",
            ("1", "j"): "j", ("j", "1"): "j",
            ("1", "k"): "k", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "i"): "-k",
            ("j", "k"): "i", ("k", "j"): "-i",
            ("k", "i"): "j", ("i", "k"): "-j",
        }
        out = basic[(a, b)]
        if neg:
            out = out[1:] if out.startswith("-") else "-" + out
        return out

    for a in names:
        for b in names:
            mul[(a, b)] = m(a, b)
    idx = {n: i for i, n in enumerate(names)}
    return [[idx[mul[(a, b)]] for b in names] for a in names]


GROUPS = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), cyclic(8), sym3(), dihedral4(), quaternion8()]


def check_axioms(q):
    m = q.order
    for x in range(m):
        assert op(q, x, x) == x
    for y in range(m):
        assert sorted(op(q, x, y) for x in range(m)) == list(range(m))
    for x in range(m):
        for y in range(m):
            for z in range(m):
                assert op(q, op(q, x, y), z) == op(q, op(q, x, z), op(q, y, z))


def test_swap3_is_a_quandle():
    q = Quandle.from_table(SWAP3, name="swap3")
    check_axioms(q)
    assert q.table == q.inv_table
    assert op(q, 0, 2) == 1 and op(q, 1, 2) == 0 and op(q, 2, 0) == 2


def test_violation_witnesses():
    bad = [[1, 0], [0, 1]]  # fails idempotence
    msgs = quandle_violations(bad)
    assert msgs and any("idempotence" in m for m in msgs)
    with pytest.raises(AxiomError) as e:
        Quandle.from_table(bad)
    assert e.value.violations

    not_bijective = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
    # rows are constant: columns y where f_y is not a bijection... here
    # every translation IS the identity, so this one actually passes
    assert quandle_violations(not_bijective) == []

    broken = [[0, 2, 0], [1, 1, 1], [2, 2, 2]]
    assert any("not injective" in m for m in quandle_violations(broken))


def test_self_distributivity_witness():
    # tweak swap3 into something idempotent and bijective per column
    # but not self-distributive
    table = [
        [0, 1, 1, 3],
        [1, 1, 0, 2],
        [2, 3, 2, 0],
        [3, 2, 3, 3],
    ]
    msgs = quandle_violations(table)
    # witness mentions the defining triple when distributivity breaks
    if msgs:
        assert any("▷" in m or "distribut" in m for m in msgs)


def test_trivial_quandle():
    q = trivial_quandle(4)
    check_axioms(q)
    assert all(op(q, x, y) == x for x in range(4) for y in range(4))
    assert q.table == q.inv_table


@pytest.mark.parametrize("table", GROUPS, ids=["Z2", "Z3", "Z4", "Z6", "Z8", "S3", "D4", "Q8"])
def test_conjugation_quandles(table):
    check_axioms(conjugation_quandle(table))


@pytest.mark.parametrize("table", GROUPS, ids=["Z2", "Z3", "Z4", "Z6", "Z8", "S3", "D4", "Q8"])
def test_core_quandles(table):
    q = core_quandle(table)
    check_axioms(q)
    assert q.table == q.inv_table


@pytest.mark.parametrize(
    "table, problem",
    [
        ([[0, 0], [0, 0]], "no two-sided identity element"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "associativity fails at (1,1,2)"),
        ([[0, 1], [1, 1]], "element 1 has no inverse"),
    ],
)
def test_group_constructors_refuse_non_groups(table, problem):
    for construct in (conjugation_quandle, core_quandle):
        with pytest.raises(InputError) as e:
            construct(table)
        assert str(e.value) == "not a group table: " + problem


def test_alexander_quandles():
    for n, t in [(3, 2), (5, 2), (5, 3), (5, 4), (7, 3), (8, 3), (9, 2)]:
        check_axioms(alexander_quandle(n, t))
    # t = n-1 gives the dihedral quandle, which is involutory
    q = alexander_quandle(7, 6)
    assert q.table == q.inv_table
    with pytest.raises(InputError):
        alexander_quandle(6, 2)  # t not a unit


def test_symplectic_quandle():
    S = [[0, 1], [1, 0]]
    q = symplectic_quandle(2, 2, S)
    assert q.order == 4
    check_axioms(q)
    q3 = symplectic_quandle(3, 2, [[0, 1], [2, 0]])
    assert q3.order == 9
    check_axioms(q3)
    with pytest.raises(InputError):
        symplectic_quandle(2, 3, [[0] * 3] * 3)  # odd dimension
    with pytest.raises(InputError):
        symplectic_quandle(2, 2, [[0, 0], [0, 0]])  # degenerate


SYMPLECTIC_SIZES = [(2, 2), (3, 2), (5, 2), (2, 4)]


@pytest.mark.parametrize("p, n", SYMPLECTIC_SIZES)
def test_symplectic_quandle_refuses_exactly_the_degenerate_forms(p, n):
    f = PrimeField(p)
    accepted = []
    for S in alternating_matrices(f, n):
        if is_nondegenerate(f, S):
            symplectic_quandle(p, n, S)
            accepted.append(S)
        else:
            with pytest.raises(InputError) as e:
                symplectic_quandle(p, n, S)
            assert str(e.value) == "S is degenerate"
    # a 2x2 alternating S is degenerate only when zero; at n = 4 over
    # F_2, 28 of the 64 have a nonzero Pfaffian
    assert len(accepted) == {2: p - 1, 4: 28}[n]


@pytest.mark.parametrize("p, n", SYMPLECTIC_SIZES)
def test_symplectic_quandle_is_the_tuple_definition(p, n):
    # every nondegenerate alternating S, not only the standard form
    f = PrimeField(p)
    vs = f.all_vectors(n)
    for S in filter(partial(is_nondegenerate, f), alternating_matrices(f, n)):
        expected = tuple(
            tuple(vs.index(vec_add(f, x, scalar_mul(f, bilinear_eval(f, S, x, y), y))) for y in vs)
            for x in vs
        )
        assert symplectic_quandle(p, n, S).table == expected, S


def _constructions():
    """(id, construction) for every named constructor over small inputs:
    every order and every unit t mod n up to 12, the groups S3 and Z_n,
    and every nondegenerate alternating S at three sizes."""
    for m in range(1, 13):
        yield f"trivial{m}", partial(trivial_quandle, m)
        for t in range(m):
            if math.gcd(t, m) == 1:
                yield f"alexander({m},{t})", partial(alexander_quandle, m, t)
    for label, table in [("S3", sym3())] + [(f"Z{m}", cyclic(m)) for m in range(1, 13)]:
        yield f"conj({label})", partial(conjugation_quandle, table)
        yield f"core({label})", partial(core_quandle, table)
    for p, n in [(2, 2), (3, 2), (2, 4)]:
        f = PrimeField(p)
        for S in filter(partial(is_nondegenerate, f), alternating_matrices(f, n)):
            entries = "".join(str(v) for row in S for v in row)
            yield f"symplectic({p},{n},{entries})", partial(symplectic_quandle, p, n, S)


CONSTRUCTIONS = dict(_constructions())


@pytest.mark.parametrize("construction", CONSTRUCTIONS.values(), ids=CONSTRUCTIONS)
def test_constructors_build_quandles(construction):
    # the constructors skip from_table's sweep, as each is a quandle by
    # theorem; the sweep here is what they leave out
    assert quandle_violations(construction().table) == []


def _closure_orbits(q):
    """Each element's orbit by closing {x} under both translations."""
    labels = []
    for x in range(q.order):
        orbit, frontier = {x}, [x]
        while frontier:
            w = frontier.pop()
            for y in range(q.order):
                for v in (op(q, w, y), inv_op(q, w, y)):
                    if v not in orbit:
                        orbit.add(v)
                        frontier.append(v)
        labels.append(min(orbit))
    return tuple(labels)


def test_orbits():
    assert Quandle.from_table(SWAP3).orbits() == (0, 0, 2)
    for q in (alexander_quandle(3, 2), alexander_quandle(5, 2), alexander_quandle(9, 2)):
        assert q.orbits() == (0,) * q.order  # connected
    for m in (1, 2, 5):
        assert trivial_quandle(m).orbits() == tuple(range(m))
    assert alexander_quandle(4, 3).orbits() == (0, 1, 0, 1)
    # conjugation quandles: the orbits are the conjugacy classes
    for table in GROUPS:
        for q in (conjugation_quandle(table), core_quandle(table)):
            assert q.orbits() == _closure_orbits(q)
    assert len(set(conjugation_quandle(GROUPS[5]).orbits())) == 3  # S3


def test_orbits_are_found_once_per_quandle(monkeypatch):
    calls = []
    search = qbeads.quandle.search_orbits

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(qbeads.quandle, "search_orbits", counted)
    for q, labels in [
        (Quandle.from_table(SWAP3), (0, 0, 2)),
        (alexander_quandle(5, 2), (0,) * 5),
        (alexander_quandle(4, 3), (0, 1, 0, 1)),
        (trivial_quandle(5), tuple(range(5))),
    ]:
        del calls[:]
        assert q.orbits() == labels
        assert q.orbits() == labels
        assert len(calls) == 1, q


def test_symplectic_indexing_follows_vector_order():
    # element i is the i-th vector of F_p^n in lexicographic order,
    # and the zero vector is a fixed point of every translation
    S = [[0, 1], [1, 0]]
    q = symplectic_quandle(2, 2, S)
    for y in range(4):
        assert op(q, 0, y) == 0


def test_parse_and_format_round_trip():
    q = Quandle.from_table(SWAP3, name="swap3")
    text = format_quandle(q)
    again = parse_quandle(text, name="swap3")
    assert again.table == q.table


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError) as e:
        parse_quandle("quandle 2\n1 1\n")
    assert "line" in str(e.value) or "row" in str(e.value)
    with pytest.raises(InputError):
        parse_quandle("quandle 2\n1 7\n2 2\n")
    with pytest.raises(InputError):
        parse_quandle("not a header\n")


def test_parse_rejects_non_quandle():
    with pytest.raises(AxiomError):
        parse_quandle("quandle 2\n2 1\n1 2\n")


def test_op_signed_and_inverse():
    q = alexander_quandle(5, 3)
    for x in range(5):
        for y in range(5):
            assert inv_op(q, op(q, x, y), y) == x
            assert op_signed(q, x, y, 1) == op(q, x, y)
            assert op_signed(q, x, y, -1) == inv_op(q, x, y)
