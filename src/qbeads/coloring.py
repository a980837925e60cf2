"""X-colorings of diagrams and bead counts over a bilinear form family.

An X-coloring assigns a quandle element to every arc so that at each
crossing color(under_out) = color(under_in) > color(over) when the sign
is positive, and the inverse translation when negative.

Given an X-coloring f, a bead coloring assigns a vector in F_p^n to
every arc so that at each positive crossing

    bead(under_out) = bead(under_in) + [bead(under_in), bead(over)] * bead(over)

with the form evaluated at (color(under_in), color(over)); at a
negative crossing the correction term is subtracted instead.  Either
way the out bead is a bijective function of the in bead, and the
inverse map evaluates the form at (color(under_out), color(over)):

    bead(under_in) = bead(under_out) -/+ [bead(under_out), bead(over)] * bead(over)

Both counts run one plan per diagram, LinkDiagram.plan.  Which
crossings can be derived or checked depends only on which arcs are
known, never on their values, so the plan fixes the seed arcs and the
straight-line derive and check steps each seed's value triggers.  Its
seeds are a minimum Wirtinger set, the fewest arcs whose values fix all
the others; their number is the diagram's Wirtinger number (Blair,
Kjuchukova, Velazquez and Villanueva, "Wirtinger systems of generators
of knot groups"; see diagram.seed_arcs, which finds it up to 20
candidate arcs).  A count enumerates the values of the seeds only.
_solve runs the plan over one (forward, inverse) table pair per
crossing: quandle tables for X-colorings, the form's step tables for
beads (the "propagate" engine).

A bare bead count runs its first two seeds only up to symmetry.  Let g
be linear with g^T B g = B for every block B the coloring reads (the
blocks at (color(under_in), color(over)) and (color(under_out),
color(over)) of every crossing).  Then

    g(a +/- [a,b] b) = ga +/- [ga,gb] gb,

so g, applied to every arc, maps bead colorings over f onto bead
colorings over f, and the number with seed values (v, w) equals the
number with (gv, gw).  For any group H of such maps the count is

    sum over H-orbit representatives v of |Hv| *
        sum over Stab_H(v)-orbit representatives w of |Stab_H(v) w| *
            count(first seed = v, second seed = w).

H is the whole isometry group of those blocks when its search stays
under forms.MAX_ISOMETRIES partial maps, else {1, -1}; any subgroup
keeps the count exact, and over F_2 {1, -1} is trivial
(BilinearForm.isometries and seed_orbits).  Listing solutions, or any
limit other than 0, runs every seed value with weight 1, so the
listing and its order do not depend on H.

The "oracle" engine enumerates assignments in arc-index order and checks
each crossing once its last arc has a value; it derives nothing and uses
no plan, no inverse table and no isometries.  It is kept as the
independent reference: "both" runs the two engines and raises on any
mismatch, so it checks the reduced count on every coloring.
"""

from .errors import InputError, QBeadsError
from .forms import BilinearForm

ENGINES = ("oracle", "propagate", "both")


def _check_coloring(diagram, quandle, coloring):
    if len(coloring) != diagram.arc_count:
        raise InputError(
            f"coloring has {len(coloring)} entries for {diagram.arc_count} arcs"
        )
    for a, x in enumerate(coloring):
        if not isinstance(x, int) or not 0 <= x < quandle.order:
            raise InputError(f"arc {a} has color {x!r}, expected 0..{quandle.order - 1}")
    for i, c in enumerate(diagram.crossings):
        expected = quandle.op_signed(coloring[c.under_in], coloring[c.over], c.sign)
        if coloring[c.under_out] != expected:
            raise InputError(
                f"not an X-coloring: crossing {i} requires arc {c.under_out} "
                f"to have color {expected}, got {coloring[c.under_out]}"
            )


def _solve(plan, size, tables, limit, orbits=None):
    """Run a plan over values 0..size-1; return (count, solutions).

    tables[i] is the (forward, inverse) pair of crossing i, indexed
    [source][over].  Solutions come in lexicographic order of the seed
    values, taken in plan order (ascending seed arcs for
    LinkDiagram.plan), the first `limit` of them (all when limit is
    None).  So the seeds, not the arc order, fix the order of
    bead_solutions; enumerate_xcolorings sorts its result.  The arcs a
    seed's steps write are fixed, so its next value just overwrites
    them: nothing is undone.

    orbits, when given, is (first, second) as BilinearForm.seed_orbits
    returns it: the first seed runs over the (value, weight) pairs of
    first, the second over those of second[first seed's value], and
    each solution counts the product of its weights.  Without it every
    value has weight 1.
    """
    stages = [
        (
            seed,
            [
                (target, source, over, tables[i][kind == "backward"], kind == "check")
                for kind, i, target, source, over in steps
            ],
        )
        for seed, steps in plan
    ]
    # every arc is a seed or the target of one derive step
    values = [0] * sum(1 + sum(kind != "check" for kind, *_ in steps) for _, steps in plan)
    # each stage's (value, weight) pairs; None reads second
    pairs = [[(v, 1) for v in range(size)]] * len(stages)
    if orbits is not None:
        first, second = orbits
        pairs[:2] = [first, None]
        first_seed = stages[0][0]
    count = 0
    sols = []

    def run(depth, weight):
        nonlocal count
        if depth == len(stages):
            count += weight
            if limit is None or len(sols) < limit:
                sols.append(tuple(values))
            return
        seed, steps = stages[depth]
        for v, k in pairs[depth] or second[values[first_seed]]:
            values[seed] = v
            for target, source, over, table, check in steps:
                w = table[values[source]][values[over]]
                if not check:
                    values[target] = w
                elif values[target] != w:
                    break
            else:
                run(depth + 1, weight * k)

    run(0, 1)
    return count, sols


def enumerate_xcolorings(diagram, quandle):
    """All X-colorings, as tuples indexed by arc, in sorted order.

    Runs the diagram's plan over the quandle's operation table
    and its inverse, forward and backward as the crossing sign demands.
    """
    q, inv = quandle.table, quandle.inv_table
    tables = [(q, inv) if c.sign > 0 else (inv, q) for c in diagram.crossings]
    return sorted(_solve(diagram.plan, quandle.order, tables, None)[1])


def counting_invariant(diagram, quandle):
    """Number of X-colorings of the diagram."""
    return len(enumerate_xcolorings(diagram, quandle))


class BeadCounter:
    """Bead counts over the X-colorings of one diagram, reading the
    diagram's plan and the form's step tables, both built once."""

    def __init__(self, diagram, quandle, form):
        if not isinstance(form, BilinearForm):
            raise InputError("count_beads requires a validated BilinearForm")
        if form.quandle != quandle:
            raise InputError("form was validated against a different quandle")
        self.diagram = diagram
        self.quandle = quandle
        self.form = form
        self.vectors = form.vector_tables.vectors
        self.plan = diagram.plan

    def _check(self, coloring, engine):
        if engine not in ENGINES:
            raise InputError(f"unknown engine {engine!r}, expected one of {ENGINES}")
        _check_coloring(self.diagram, self.quandle, coloring)

    def count(self, coloring, engine="propagate"):
        self._check(coloring, engine)
        if engine == "both":
            a = self._count_oracle(coloring, 0)
            b = self._count_propagate(coloring, 0)
            if a[0] != b[0]:
                raise QBeadsError(
                    f"engine disagreement: oracle={a[0]} propagate={b[0]} "
                    f"for coloring {coloring}"
                )
            return a[0]
        if engine == "oracle":
            return self._count_oracle(coloring, 0)[0]
        return self._count_propagate(coloring, 0)[0]

    def solutions(self, coloring, engine="propagate", limit=None):
        """Bead colorings as tuples of vectors, one per arc."""
        self._check(coloring, engine)
        if engine == "both":
            _, sols_o = self._count_oracle(coloring, None)
            _, sols_p = self._count_propagate(coloring, None)
            if sorted(sols_o) != sorted(sols_p):
                raise QBeadsError("engine disagreement on solution sets")
            sols = sols_o if limit is None else sols_o[:limit]
        elif engine == "oracle":
            _, sols = self._count_oracle(coloring, limit)
        else:
            _, sols = self._count_propagate(coloring, limit)
        return [tuple(self.vectors[i] for i in sol) for sol in sols]

    def _count_oracle(self, coloring, limit):
        """Enumerate assignments in lexicographic arc order; check each
        crossing once all three of its arcs are assigned, dropping the
        prefix at the first failed check.  Nothing is propagated.

        This is the reference the compiled plan is checked against
        (engine="both"): it uses only the forward step tables and no
        plan, seed order or inverse table."""
        n_arcs = self.diagram.arc_count
        checks = [[] for _ in range(n_arcs)]
        for c in self.diagram.crossings:
            x, y = coloring[c.under_in], coloring[c.over]
            table = self.form.step_table(x, y, c.sign)
            checks[max(c.under_in, c.over, c.under_out)].append(
                (c.under_in, c.over, c.under_out, table)
            )
        count = 0
        sols = []
        assignment = [0] * n_arcs
        nv = len(self.vectors)

        def sweep(depth):
            nonlocal count
            if depth == n_arcs:
                count += 1
                if limit is None or len(sols) < limit:
                    sols.append(tuple(assignment))
                return
            for v in range(nv):
                assignment[depth] = v
                if all(
                    assignment[uo] == t[assignment[ui]][assignment[ov]]
                    for ui, ov, uo, t in checks[depth]
                ):
                    sweep(depth + 1)

        sweep(0)
        return count, sols

    def _count_propagate(self, coloring, limit):
        """Run the compiled plan over this coloring's step tables.

        A bare count (limit 0) runs the first two seeds over the
        weighted orbits of the isometries of the blocks the coloring
        reads; a listing runs every value, so it lists every solution.
        """
        form, crossings = self.form, self.diagram.crossings
        tables = [
            (
                form.step_table(coloring[c.under_in], coloring[c.over], c.sign),
                form.step_table(coloring[c.under_out], coloring[c.over], -c.sign),
            )
            for c in crossings
        ]
        orbits = None
        if limit == 0:
            ids = form.block_ids
            orbits = form.seed_orbits(
                frozenset(
                    ids[coloring[a]][coloring[c.over]]
                    for c in crossings
                    for a in (c.under_in, c.under_out)
                )
            )
        return _solve(self.plan, len(self.vectors), tables, limit, orbits)


def count_beads(diagram, quandle, form, coloring, engine="propagate"):
    """Number of bead colorings over one X-coloring."""
    return BeadCounter(diagram, quandle, form).count(coloring, engine=engine)


def bead_solutions(diagram, quandle, form, coloring, engine="propagate", limit=None):
    """The bead colorings themselves, as tuples of vectors per arc."""
    return BeadCounter(diagram, quandle, form).solutions(
        coloring, engine=engine, limit=limit
    )
