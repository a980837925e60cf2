"""The bead-enhanced invariant: a polynomial in u whose terms collect
the bead-coloring count of every X-coloring of a diagram.

For each X-coloring f the diagram has some number k_f of bead
colorings; the invariant is sum_f u^(k_f), stored as a multiset of
exponents.  Evaluating at u = 1 recovers the X-coloring counting
invariant.  Rendering is canonical: terms in descending exponent,
multiplicity 1 left implicit, so for example ``u^16 + 4u^10``.

The propagate engine reads a coloring f only through the step tables
of its crossings, and both tables at a crossing are fixed by its sign
and the block B[f(under_in)][f(over)] (see the coloring module).  So
a count depends only on f's block key, the id of that block at every
crossing (BeadCounter.block_key).  For a valid form the blocks are
constant on orbits, and every arc of a link component lies in one
orbit, so the key is fixed by the orbit of each component.

Nor does compute_invariant list every coloring.  An element g of
Inn(X) is an automorphism that keeps every orbit, so g o f is an
X-coloring with the same component orbits as f, for every form that
validate_form or the search accepts.  So the set of colorings with
given component orbits is Inn(X)-invariant, and compute_invariant runs
the X-coloring plan with its first two seeds over weighted orbit
representatives of H = Inn(X) (coloring.enumerate_weighted_xcolorings):
a leaf whose first two seeds are v and w stands for |Hv| * |Stab_H(v) w|
colorings.  It groups the leaves by the orbit label of one arc per
component, so the weights of a class add up to its number of
colorings; maps each class to the block key of one of its leaves; and
merges the classes that share a key.  Each distinct key is then
counted once from the key itself, BeadCounter.count_key, so the cost
past the enumeration scales with the classes, not with the leaves
times the crossings.  The leaves are the plan's own X-colorings, so
none is checked as a coloring or keyed a second time; the public
entries that take a coloring from a caller (BeadCounter.count and
.solutions, count_beads, bead_solutions) check it, under every engine.

A form of one block has one key: every X-coloring reads that block,
id 0, at every crossing.  That covers every constant family and, by
the orbit lemma (see the forms module), every valid form on a
connected quandle.  There compute_invariant lists nothing: its one
class is that key, weighted by the number of X-colorings
(coloring.counting_invariant).

The oracle and both engines take instead every coloring of
enumerate_xcolorings with weight 1, keyed by the coloring itself, and
count it through BeadCounter.count, so each is checked and the engines
are compared on each one.  From there one loop serves all three: it
counts each key once and adds its count to the polynomial with the
key's total weight as multiplicity.  InvariantResult.colorings and
.counts list every coloring and its count, in sorted order, computed
on first read from enumerate_xcolorings and the per-key counts.

Each of those counts runs the first two seeds up to the isometries of
the blocks the coloring reads: a linear g with g^T B g = B for each of
them maps bead colorings to bead colorings, so the first seed runs
over orbit representatives v weighted by |Hv| and the second over
Stab_H(v)-orbit representatives w weighted by |Stab_H(v) w| (see the
coloring module).  H is built from generators once per form and set
of blocks read.  So counts stay exact, and the polynomial and the
per-coloring counts are those of a full enumeration.
"""

import time
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from typing import Callable

from .coloring import (
    ENGINES,
    BeadCounter,
    counting_invariant,
    enumerate_weighted_xcolorings,
    enumerate_xcolorings,
)
from .errors import InputError


class InvariantPolynomial:
    """A multiset of exponents: {exponent: multiplicity}."""

    def __init__(self):
        self.terms = {}

    def add_exponent(self, exponent, multiplicity=1):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError(f"exponent must be a nonnegative int, got {exponent!r}")
        if not isinstance(multiplicity, int) or multiplicity < 0:
            raise InputError(f"multiplicity must be a nonnegative int, got {multiplicity!r}")
        if multiplicity:
            self.terms[exponent] = self.terms.get(exponent, 0) + multiplicity

    @classmethod
    def from_term_list(cls, pairs):
        """Build from [[exponent, multiplicity], ...]."""
        poly = cls()
        for exponent, multiplicity in pairs:
            poly.add_exponent(exponent, multiplicity)
        return poly

    def term_list(self):
        """[[exponent, multiplicity], ...] in descending exponent order."""
        return [[e, self.terms[e]] for e in sorted(self.terms, reverse=True)]

    def evaluate_at_one(self):
        return sum(self.terms.values())

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            mult = self.terms[e]
            coeff = "" if mult == 1 and e > 0 else str(mult)
            if e == 0:
                parts.append(str(mult))
            elif e == 1:
                parts.append(f"{coeff}u")
            else:
                parts.append(f"{coeff}u^{e}")
        return " + ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"InvariantPolynomial({self.render()!r})"

    def __eq__(self, other):
        if isinstance(other, InvariantPolynomial):
            return other.terms == self.terms
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))


def compare(p1, p2):
    """Multiset comparison of two invariant values."""
    return "equal" if p1.terms == p2.terms else "distinguished"


@dataclass
class InvariantResult:
    """A computed invariant.  colorings (every X-coloring, in sorted
    order) and counts (the bead count of each) are computed on the
    first read of either, by listing, so a caller that reads neither
    pays only for the polynomial."""

    link: str
    quandle: str
    form: str
    engine: str
    polynomial: InvariantPolynomial
    # () -> (colorings, counts)
    listing: Callable = dataclass_field(repr=False, compare=False)
    elapsed: float = 0.0

    @cached_property
    def _listed(self):
        return self.listing()

    @property
    def colorings(self):
        return self._listed[0]

    @property
    def counts(self):
        return self._listed[1]

    def record(self):
        """JSON-ready summary (per-coloring detail intentionally omitted)."""
        return {
            "link": self.link,
            "quandle": self.quandle,
            "form": self.form,
            "engine": self.engine,
            "terms": self.polynomial.term_list(),
            "counting": self.polynomial.evaluate_at_one(),
            "elapsed": self.elapsed,
        }


def _classes(diagram, quandle, counter):
    """{block key: the number of X-colorings with it}, from the leaves
    of enumerate_weighted_xcolorings grouped by the orbits of their
    components, or, on a form of one block, the one key every
    X-coloring has (see the module docstring)."""
    if len(counter.form.bilinear_tables) == 1:
        return {(0,) * len(diagram.crossings): counting_invariant(diagram, quandle)}
    orbit = quandle.orbits()
    heads = [component[0] for component in diagram.components]
    by_orbits = {}  # orbit label of each component -> [a leaf, total weight]
    for f, weight in enumerate_weighted_xcolorings(diagram, quandle):
        by_orbits.setdefault(tuple([orbit[f[a]] for a in heads]), [f, 0])[1] += weight
    classes = {}
    for f, weight in by_orbits.values():
        key = counter.block_key(f)
        classes[key] = classes.get(key, 0) + weight
    return classes


def compute_invariant(diagram, quandle, form, engine="propagate"):
    """Count bead colorings over every X-coloring of the diagram.

    The propagate engine counts once per block key over the X-colorings
    up to Inn(X), grouped by the orbits of their components, each
    class weighted by its size; the oracle and both engines count every
    coloring (see the module docstring).
    """
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    start = time.monotonic()
    counter = BeadCounter(diagram, quandle, form)
    if engine == "propagate":
        weights = _classes(diagram, quandle, counter)
        count = counter.count_key
        key = counter.block_key
    else:
        weights = dict.fromkeys(enumerate_xcolorings(diagram, quandle), 1)
        count = partial(counter.count, engine=engine)
        key = tuple  # a coloring is a tuple, so this returns it as is
    poly = InvariantPolynomial()
    counts = {}
    for k, weight in weights.items():
        counts[k] = count(k)
        poly.add_exponent(counts[k], weight)

    def listing():
        colorings = enumerate_xcolorings(diagram, quandle)
        return colorings, [counts[key(f)] for f in colorings]

    return InvariantResult(
        link=diagram.name,
        quandle=quandle.name,
        form=form.name,
        engine=engine,
        polynomial=poly,
        elapsed=time.monotonic() - start,
        listing=listing,
    )
