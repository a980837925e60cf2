"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion; conftest.py turns
the results into an eight-line scorecard at the end of the run.
Criteria with a stated time budget are timed with a wall clock.
"""

import time
from pathlib import Path

from axiom_oracle import brute_force_violations
from qbeads import catalog
from qbeads.coloring import BeadCounter, bead_solutions, counting_invariant, enumerate_xcolorings
from qbeads.diagram import load_diagram
from qbeads.field import PrimeField
from qbeads.forms import constant_form, form_violations, validate_form
from qbeads.invariant import compute_invariant
from qbeads.quandle import symplectic_quandle
from qbeads.search import run_search, verify_search_output

DATA = Path(__file__).parent / "data"


def _load(form_name):
    form = catalog.load_form(form_name)
    return form.quandle, form


_BATCH = {}


def _batch(form_name):
    """All 18 catalog links against one catalog form (cached, timed)."""
    if form_name not in _BATCH:
        quandle, form = _load(form_name)
        start = time.monotonic()
        results = {
            name: compute_invariant(catalog.load(name).diagram, quandle, form)
            for name in catalog.list_links()
        }
        _BATCH[form_name] = (results, time.monotonic() - start)
    return _BATCH[form_name]


def test_criterion_1():
    """L2a1 invariant, per-coloring counts, and the b=(1,1) bead sub-case"""
    quandle, form = _load("swap3-partial")
    entry = catalog.load("L2a1")
    start = time.monotonic()
    result = compute_invariant(entry.diagram, quandle, form)
    sols = bead_solutions(entry.diagram, quandle, form, (1, 1), engine="both")
    elapsed = time.monotonic() - start
    assert result.polynomial.render() == "u^16 + 4u^10"
    assert sorted(result.counts) == [10, 10, 10, 10, 16]
    picked = sorted(a for a, b in sols if b == (1, 1))
    assert picked == [(0, 0), (1, 1)]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2():
    """all 18 links match the first expected table in < 60s single-threaded"""
    results, elapsed = _batch("swap3-partial")
    expected = catalog.expected_table("swap3-partial")
    for name in catalog.list_links():
        want = expected[name].render()
        got = results[name].polynomial.render()
        assert got == want, f"{name}: computed {got}, expected {want}"
    # equal rows stay equal
    tied = {results[n].polynomial.render() for n in ("L7a2", "L7a3", "L7n1", "L7n2")}
    assert tied == {"2u^40 + 7u^16"}
    # proper enhancement: same coloring count, different polynomials
    assert results["L2a1"].polynomial.evaluate_at_one() == 5
    assert results["L6a3"].polynomial.evaluate_at_one() == 5
    assert results["L2a1"].polynomial != results["L6a3"].polynomial
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3():
    """all 18 links match the second expected table in < 60s single-threaded"""
    results, elapsed = _batch("swap3-full")
    expected = catalog.expected_table("swap3-full")
    for name in catalog.list_links():
        want = expected[name].render()
        got = results[name].polynomial.render()
        assert got == want, f"{name}: computed {got}, expected {want}"
    assert results["L2a1"].polynomial.render() == "5u^10"
    assert results["L6a4"].polynomial.render() == "18u^64 + 9u^40"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_4():
    """four named forms validate; >= 90% of single-entry mutations detected"""
    quandle, partial = _load("swap3-partial")
    catalog.load_form("swap3-full")
    catalog.load_form("swap3-zero")
    S = [[0, 1], [1, 0]]
    sympq = symplectic_quandle(2, 2, S)
    constant_form(sympq, 2, 2, S)  # raises if invalid

    field = PrimeField(2)
    caught = 0
    still_valid = 0
    for x in range(3):
        for y in range(3):
            for i in range(2):
                for j in range(2):
                    blocks = [[[list(r) for r in B] for B in row] for row in partial.blocks]
                    blocks[x][y][i][j] ^= 1
                    if form_violations(quandle, blocks, field, 2):
                        caught += 1
                    else:
                        validate_form(quandle, blocks, 2, 2)
                        still_valid += 1
    assert caught + still_valid == 36
    assert caught >= 33, f"only {caught}/36 mutations detected"


def test_criterion_5():
    """oracle and propagate engines agree on every link x form x coloring"""
    start = time.monotonic()
    compared = 0
    for form_name in ("swap3-partial", "swap3-full"):
        quandle, form = _load(form_name)
        for name in catalog.list_links():
            diagram = catalog.load(name).diagram
            counter = BeadCounter(diagram, quandle, form)
            for coloring in enumerate_xcolorings(diagram, quandle):
                a = counter.count(coloring, engine="oracle")
                b = counter.count(coloring, engine="propagate")
                assert a == b, f"{name}/{form_name}/{coloring}: {a} != {b}"
                compared += 1
    elapsed = time.monotonic() - start
    assert compared == 2 * sum(
        len(enumerate_xcolorings(catalog.load(n).diagram, quandle))
        for n in catalog.list_links()
    )
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_6():
    """u=1 specialization equals the counting invariant everywhere"""
    for form_name in ("swap3-partial", "swap3-full"):
        results, _ = _batch(form_name)
        quandle, _form = _load(form_name)
        for name in catalog.list_links():
            count = counting_invariant(catalog.load(name).diagram, quandle)
            assert results[name].polynomial.evaluate_at_one() == count
    assert _BATCH["swap3-partial"][0]["L6a4"].polynomial.evaluate_at_one() == 27


def test_criterion_7():
    """added RI kink and RII pair leave the polynomials unchanged"""
    families = {
        "hopf": [catalog.load("L2a1").diagram,
                 load_diagram(DATA / "hopf-r1.diagram"),
                 load_diagram(DATA / "hopf-r2.diagram")],
        "unknot": [load_diagram(DATA / f"unknot{s}.diagram") for s in ("", "-r1", "-r2")],
        "trefoil": [load_diagram(DATA / f"trefoil{s}.diagram") for s in ("", "-r1", "-r2")],
    }
    for form_name in ("swap3-partial", "swap3-full"):
        quandle, form = _load(form_name)
        for label, diagrams in families.items():
            base, kinked, poked = [
                compute_invariant(d, quandle, form).polynomial for d in diagrams
            ]
            assert base == kinked, f"{label}/{form_name}: RI changed the value"
            assert base == poked, f"{label}/{form_name}: RII changed the value"


def test_criterion_8():
    """search over p=2, n=2 recovers both shipped forms and only valid ones"""
    quandle, partial = _load("swap3-partial")
    full = catalog.load_form("swap3-full")
    start = time.monotonic()
    result = run_search(quandle, 2, 2, mode="all", allow_large=True)
    elapsed = time.monotonic() - start
    assert result.complete
    found = {form.blocks for form in result.forms}
    assert partial.blocks in found
    assert full.blocks in found
    assert verify_search_output(result) == []
    # verify_search_output checks on unit vectors only, so every emitted
    # form is also swept over all vector triples
    for form in result.forms:
        assert brute_force_violations(form.quandle, form.blocks, form.field, form.n) == []
    assert elapsed < 600.0, f"took {elapsed:.2f}s"
