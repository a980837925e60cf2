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
compute_invariant keys each coloring by the id of that block at every
crossing and counts beads once per key.  For a valid form the blocks
are constant on orbits, and every arc of a link component lies in one
orbit, so there is at most one count per component-orbit tuple.

Nor does it list every coloring.  An element g of Inn(X) is an
automorphism that keeps every orbit, so g o f is an X-coloring with
the same block key as f, for every form that validate_form or the
search accepts.  So the set of colorings with a given key is
Inn(X)-invariant, and compute_invariant runs the X-coloring plan with
its first two seeds over weighted orbit representatives of H = Inn(X)
(coloring.enumerate_weighted_xcolorings): a leaf whose first two
seeds are v and w stands for |Hv| * |Stab_H(v) w| colorings, and the
weights of a key's leaves add up to its number of colorings.

The oracle and both engines take instead every coloring of
enumerate_xcolorings with weight 1, keyed by the coloring itself, so
the engines are compared on each one.  From there one loop serves all
three: it adds up the weights per key, counts each key once and adds
its count to the polynomial with that total as multiplicity.
InvariantResult.colorings and .counts list every coloring and its
count, in sorted order, computed on first read from
enumerate_xcolorings and the per-key counts.

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
from functools import cached_property
from typing import Callable

from .coloring import ENGINES, BeadCounter, enumerate_weighted_xcolorings, enumerate_xcolorings
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


def _block_key(diagram, form):
    """key(f): what the propagate engine reads of a coloring f, the id
    of the block B[f(under_in)][f(over)] at each crossing (see the
    module docstring)."""
    block_id = form.block_ids
    arcs = [(c.under_in, c.over) for c in diagram.crossings]

    def key(f):
        return tuple([block_id[f[i]][f[o]] for i, o in arcs])

    return key


def compute_invariant(diagram, quandle, form, engine="propagate"):
    """Count bead colorings over every X-coloring of the diagram.

    The propagate engine counts once per block key over the X-colorings
    up to Inn(X), each weighted by its class size; the oracle and both
    engines count every coloring (see the module docstring).
    """
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    start = time.monotonic()
    counter = BeadCounter(diagram, quandle, form)
    if engine == "propagate":
        leaves = enumerate_weighted_xcolorings(diagram, quandle)
        key = _block_key(diagram, form)
    else:
        leaves = [(f, 1) for f in enumerate_xcolorings(diagram, quandle)]
        key = tuple  # a coloring is a tuple, so this returns it as is
    classes = {}  # key -> [a coloring with it, total weight]
    for f, weight in leaves:
        classes.setdefault(key(f), [f, 0])[1] += weight
    poly = InvariantPolynomial()
    counts = {}
    for k, (f, weight) in classes.items():
        counts[k] = counter.count(f, engine=engine)
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
