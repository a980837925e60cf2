from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qbeads.catalog import link_diagram, list_links, load as load_entry, load_form, load_quandle
from qbeads.coloring import BeadCounter, counting_invariant
from qbeads.diagram import load_diagram
from qbeads.errors import InputError
from qbeads.forms import constant_form
from qbeads.invariant import InvariantPolynomial, compare, compute_invariant
from qbeads.quandle import symplectic_quandle

from field_ops import is_nondegenerate

DATA = Path(__file__).parent / "data"


def all_diagrams():
    """The 18 catalog links and the tests/data diagrams."""
    links = [link_diagram(name) for name in list_links()]
    return links + [load_diagram(path) for path in sorted(DATA.glob("*.diagram"))]


def P(*pairs):
    return InvariantPolynomial.from_term_list(list(pairs))


def test_render_canonical_forms():
    assert P().render() == "0"
    assert P([0, 3]).render() == "3"
    assert P([1, 1]).render() == "u"
    assert P([1, 2]).render() == "2u"
    assert P([16, 1], [10, 4]).render() == "u^16 + 4u^10"
    assert P([10, 5]).render() == "5u^10"
    assert P([64, 19], [40, 8]).render() == "19u^64 + 8u^40"
    assert P([2, 1], [1, 1], [0, 1]).render() == "u^2 + u + 1"


def test_terms_merge_and_sort():
    p = InvariantPolynomial()
    p.add_exponent(10)
    p.add_exponent(16)
    p.add_exponent(10)
    assert p.term_list() == [[16, 1], [10, 2]]


@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 9)),
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
def test_term_list_round_trip(pairs):
    p = P(*[list(t) for t in pairs])
    assert InvariantPolynomial.from_term_list(p.term_list()) == p
    assert p.evaluate_at_one() == sum(m for _, m in pairs)


def test_rejects_bad_terms():
    with pytest.raises(InputError):
        P([-1, 2])
    with pytest.raises(InputError):
        P([2.5, 1])
    with pytest.raises(InputError):
        P([2, -1])
    # zero multiplicity means the term is simply absent
    assert P([2, 0]) == P()


def test_compare():
    assert compare(P([16, 1]), P([16, 1])) == "equal"
    assert compare(P([16, 1]), P([10, 1])) == "distinguished"


def test_compute_invariant_record():
    q = load_quandle("swap3")
    form = load_form("swap3-partial")
    entry = load_entry("L2a1")
    res = compute_invariant(entry.diagram, q, form, engine="both")
    assert res.polynomial.render() == "u^16 + 4u^10"
    assert res.polynomial.evaluate_at_one() == len(res.colorings) == 5
    assert sorted(res.counts) == [10, 10, 10, 10, 16]
    rec = res.record()
    assert rec["link"] == "L2a1"
    assert rec["quandle"] == "swap3"
    assert rec["form"] == "swap3-partial"
    assert rec["counting"] == 5
    assert rec["terms"] == [[16, 1], [10, 4]]
    assert rec["elapsed"] >= 0


def test_counting_equals_evaluation_at_one():
    q = load_quandle("swap3")
    form = load_form("swap3-partial")
    for name in ["L4a1", "L6a5", "L7n1"]:
        res = compute_invariant(load_entry(name).diagram, q, form)
        assert res.polynomial.evaluate_at_one() == len(res.colorings)


@pytest.mark.parametrize("form_name", ["swap3-partial", "swap3-full", "constant-F9"])
def test_shared_counts_equal_per_coloring_counts(form_name):
    """Counting once per block key gives every coloring its own count."""
    q = load_quandle("swap3")
    if form_name == "constant-F9":
        form = constant_form(q, 3, 2, [[0, 1], [2, 0]])
    else:
        form = load_form(form_name)
    for d in all_diagrams():
        res = compute_invariant(d, q, form)
        counter = BeadCounter(d, q, form)
        assert res.counts == [counter.count(f) for f in res.colorings], d.name


def test_one_orbit_bead_counts_are_symplectic_colorings():
    """Over a coloring inside one orbit O the bead step at a crossing
    is the symplectic quandle operation of M = B[O][O], so the bead
    count is that quandle's counting invariant (when M is
    nondegenerate).  Its tables come from the quandle module's
    symplectic construction, not from BeadCounter's step tables."""
    q = load_quandle("swap3")
    form = load_form("swap3-partial")
    orbit = q.orbits()
    field = form.field
    checked = 0
    for name in list_links():
        d = link_diagram(name)
        res = compute_invariant(d, q, form)
        for f, k in zip(res.colorings, res.counts):
            labels = {orbit[x] for x in f}
            if len(labels) != 1:
                continue
            o = labels.pop()
            M = form.blocks[o][o]
            if not is_nondegenerate(field, M):
                continue
            assert k == counting_invariant(d, symplectic_quandle(field.p, form.n, M)), (
                name,
                f,
            )
            checked += 1
    assert checked == 88
