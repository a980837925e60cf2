"""The bead-enhanced invariant: a polynomial in u whose terms collect
the bead-coloring count of every X-coloring of a diagram.

For each X-coloring f the diagram has some number k_f of bead
colorings; the invariant is sum_f u^(k_f), stored as a multiset of
exponents.  Evaluating at u = 1 recovers the X-coloring counting
invariant.  Rendering is canonical: terms in descending exponent,
multiplicity 1 left implicit, so for example ``u^16 + 4u^10``.

The propagate engine reads a coloring f only through the step tables
of its crossings, and the table at a crossing is fixed by its sign and
the blocks B[f(under_in)][f(over)] and B[f(under_out)][f(over)].  So
compute_invariant keys each coloring by the ids of those two distinct
matrices at every crossing and counts beads once per key, which is
exact for any form.  For a valid form the blocks are constant on
orbits, and every arc of a link component lies in one orbit, so there
is at most one count per component-orbit tuple.  The oracle and both
engines still count every coloring, so the engines are compared on
each one.

Each of those counts runs the first two seeds up to the isometries of
the blocks the coloring reads: a linear g with g^T B g = B for each of
them maps bead colorings to bead colorings, so the first seed runs
over orbit representatives v weighted by |Hv| and the second over
Stab_H(v)-orbit representatives w weighted by |Stab_H(v) w| (see the
coloring module).  H is the full isometry group up to a fixed search
size and {1, -1} above it, and is built once per form and set of
blocks read.  So counts stay exact, and the polynomial and the
per-coloring counts are those of a full enumeration.
"""

import time
from dataclasses import dataclass, field as dataclass_field

from .coloring import ENGINES, BeadCounter, enumerate_xcolorings
from .errors import InputError


class InvariantPolynomial:
    """A multiset of exponents: {exponent: multiplicity}."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exponent, multiplicity in dict(terms).items():
                self._add(exponent, multiplicity)

    def _add(self, exponent, multiplicity=1):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError(f"exponent must be a nonnegative int, got {exponent!r}")
        if not isinstance(multiplicity, int) or multiplicity < 0:
            raise InputError(f"multiplicity must be a nonnegative int, got {multiplicity!r}")
        if multiplicity:
            self.terms[exponent] = self.terms.get(exponent, 0) + multiplicity

    def add_exponent(self, exponent):
        self._add(exponent, 1)

    @classmethod
    def from_term_list(cls, pairs):
        """Build from [[exponent, multiplicity], ...]."""
        poly = cls()
        for exponent, multiplicity in pairs:
            poly._add(exponent, multiplicity)
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
    link: str
    quandle: str
    form: str
    engine: str
    polynomial: InvariantPolynomial
    colorings: list = dataclass_field(repr=False, default_factory=list)
    counts: list = dataclass_field(repr=False, default_factory=list)
    elapsed: float = 0.0

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


def _distinct_colorings(diagram, form, colorings, engine):
    """(representatives, index): the colorings to count, and for each
    coloring the position of the representative whose count it shares.

    Under the propagate engine colorings with equal block keys (see the
    module docstring) share one count; every other engine counts each.
    """
    if engine != "propagate":
        return colorings, range(len(colorings))
    block_id = form.block_ids
    width = 1 + max(map(max, block_id))
    arcs = [(c.under_in, c.over, c.under_out) for c in diagram.crossings]
    position = {}
    representatives, index = [], []
    for f in colorings:
        # one int per crossing for its pair of block ids
        key = tuple(
            [block_id[f[i]][f[o]] * width + block_id[f[u]][f[o]] for i, o, u in arcs]
        )
        if key not in position:
            position[key] = len(representatives)
            representatives.append(f)
        index.append(position[key])
    return representatives, index


def compute_invariant(diagram, quandle, form, engine="propagate"):
    """Count bead colorings over every X-coloring of the diagram.

    Colorings that share a count are counted once (see the module
    docstring).
    """
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    start = time.monotonic()
    colorings = enumerate_xcolorings(diagram, quandle)
    todo, index = _distinct_colorings(diagram, form, colorings, engine)
    counter = BeadCounter(diagram, quandle, form)
    distinct = [counter.count(c, engine=engine) for c in todo]
    counts = [distinct[k] for k in index]
    poly = InvariantPolynomial()
    for k in counts:
        poly.add_exponent(k)
    elapsed = time.monotonic() - start
    return InvariantResult(
        link=diagram.name,
        quandle=quandle.name,
        form=form.name,
        engine=engine,
        polynomial=poly,
        colorings=colorings,
        counts=counts,
        elapsed=elapsed,
    )
