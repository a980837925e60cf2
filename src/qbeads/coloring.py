"""X-colorings of diagrams and bead counts over a bilinear form family.

An X-coloring assigns a quandle element to every arc so that at each
crossing color(under_out) = color(under_in) > color(over) when the sign
is positive, and the inverse translation when negative.

Given an X-coloring f, a bead coloring assigns a vector in F_p^n to
every arc so that at each positive crossing

    bead(under_out) = bead(under_in) + [bead(under_in), bead(over)] * bead(over)

with the form evaluated at (x, y) = (color(under_in), color(over)); at a
negative crossing the correction term is subtracted instead.  These are
the translations of the bead quandle X x F_p^n, where
(x, a) > (y, b) = (x > y, a + [a,b]_{x,y} b), and the negative step
a -> a - [a,b]_{x,y} b is its inverse translation by (y, b).  That
holds because [a,b]_{x,y} [b,b]_{x,y} = 0 on a valid form: axiom (ii)
at z = y and c = b, with [b,b]_{y,y} = 0 by (i) and y > y = y, reads

    [a,b]_{x,y} = [a,b]_{x>y,y} + [a,b]_{x,y} [b,b]_{x>y,y},

and the form is constant on orbits (the orbit lemma in the forms
module), so the block at (x>y, y) is the block at (x, y).  Hence
a' = a +/- [a,b] b has [a',b] = [a,b], and a = a' -/+ [a',b] b: each
step is a bijection of the in bead, undone by the step of the opposite
sign through the same block.  under_out lies in the orbit of under_in,
so every step at a crossing reads one block,
B[color(under_in)][color(over)], which is exact for every form that
validate_form or the search returns.

Both counts run one plan per diagram, LinkDiagram.plan.  Which
crossings can be derived or checked depends only on which arcs are
known, never on their values, so the plan fixes the seed arcs and the
straight-line derive and check steps each seed's value triggers.  Its
seeds are a minimum Wirtinger set, the fewest arcs whose values fix all
the others; their number is the diagram's Wirtinger number (Blair,
Kjuchukova, Velazquez and Villanueva, "Wirtinger systems of generators
of knot groups"; see diagram.seed_arcs, which finds it up to 20
candidate arcs).  A count enumerates the values of the seeds only,
in the plan's cost order (diagram.propagation_plan), and from the
third seed on a seed that is the over arc of a check whose under ends
are already fixed runs only over the values that pass it: the plan
marks that check as the stage's "key" step.  A run reads one
(forward, inverse, preimages) table triple per crossing: quandle
tables for X-colorings, the form's step tables for beads (the
"propagate" engine).

Every run calls LinkDiagram.kernel, the plan compiled into one
generated function with a nested for loop per seed and a line per step
(diagram.compile_plan).  A diagram looks its plan and kernel up on its
first run, by its structure: the arc count, the crossings in order and
the number of components, which are all that the plan reads
(diagram.compile_structure).  Each structure is planned and compiled
once per process, so a diagram loaded again plans and compiles
nothing.  Its solutions come in lexicographic order of the seed
values, seeds taken in plan order, which need not be ascending arc
order: so the plan, not the arc order, fixes the order of
bead_solutions; enumerate_xcolorings sorts its result.  The
interpreter that a kernel unrolls, one stage per seed and a loop over
the seed's steps, is kept in tests/plan_reference.py as the reference
the kernels are tested against.

A bare bead count runs its first two seeds only up to symmetry.  Let g
be linear with g^T B g = B for every block B the coloring reads (the
block at (color(under_in), color(over)) of every crossing).  Then

    g(a +/- [a,b] b) = ga +/- [ga,gb] gb,

so g, applied to every arc, maps bead colorings over f onto bead
colorings over f, and the number with seed values (v, w) equals the
number with (gv, gw).  For any group H of such maps the count is

    sum over H-orbit representatives v of |Hv| *
        sum over Stab_H(v)-orbit representatives w of |Stab_H(v) w| *
            count(first seed = v, second seed = w).

H is the isometry group of those blocks, from its generators
(BilinearForm.isometries and seed_orbits), or the subgroup that the
generators found within forms.MAX_ISOMETRIES partial maps generate;
either keeps the count exact.  Listing solutions, or any limit other
than 0, runs every seed value with weight 1, so the listing and its
order do not depend on H.

A bare count reads the coloring only through its block key, the block
id at each crossing (BeadCounter.block_key): the key fixes every
crossing's step tables and the set of blocks H must keep.  So
BeadCounter.count_key counts from the key alone, and count keys a
coloring, after checking it, and calls count_key.

X-colorings reduce the same way under Inn(X), the group generated by
the right translations x -> x > y.  Each of its elements g is an
automorphism of X, so g o f is an X-coloring whenever f is, and the
X-colorings with seed values (v, w, ...) correspond one to one with
those with (gv, gw, ...).  enumerate_weighted_xcolorings runs the
first two seeds over the weighted orbits of H = Inn(X) on X
(Quandle.inner_orbits) and lists each leaf f with weight |Hv| *
|Stab_H(v) w|; for any function of colorings that every g leaves
unchanged, its sum over all X-colorings is the weighted sum over the
leaves.  A valid form is constant on (orbit of x, orbit of y) and g
keeps every orbit, so the blocks g o f reads are those f reads, and
the bead count, like every count above, is such a function.
enumerate_xcolorings still lists every coloring, in sorted order.

The "oracle" engine assigns every value to one arc after another, in
an order taken from the crossings alone (sweep_order), and checks each
crossing once its three arcs have values; it derives nothing and uses
no plan, no inverse table and no isometries.  It is kept as the
independent reference: "both" runs the two engines and raises on any
mismatch, so it checks the reduced count on every coloring.
"""

from functools import cached_property

from .errors import InputError, QBeadsError
from .forms import BilinearForm

ENGINES = ("oracle", "propagate", "both")


def _quandle_tables(diagram, quandle):
    """Each crossing's (forward, inverse, preimages) triple of quandle
    tables, as the crossing sign demands: preimages indexes the forward
    table (Quandle.preimages)."""
    q, inv = quandle.table, quandle.inv_table
    pq, pinv = quandle.preimages
    return [(q, inv, pq) if c.sign > 0 else (inv, q, pinv) for c in diagram.crossings]


def enumerate_xcolorings(diagram, quandle):
    """All X-colorings, as tuples indexed by arc, in sorted order.

    Runs the diagram's plan over the quandle's operation table
    and its inverse, forward and backward as the crossing sign demands.
    """
    tables = _quandle_tables(diagram, quandle)
    return sorted(diagram.kernel(quandle.order, tables, None, None)[1])


def enumerate_weighted_xcolorings(diagram, quandle):
    """X-colorings up to Inn(X): a list of (coloring, weight).

    The first two seeds run over quandle.inner_orbits (see the module
    docstring), so every X-coloring is g o f for some listed f and g
    in Inn(X), and for any function of colorings that g o f does not
    change, its sum over all X-colorings is the sum over the list of
    weight times its value.  In particular the weights add up to the
    number of X-colorings.  Listed in the plan's order.
    """
    tables = _quandle_tables(diagram, quandle)
    return diagram.kernel(quandle.order, tables, None, quandle.inner_orbits)[1]


def counting_invariant(diagram, quandle):
    """Number of X-colorings of the diagram: the weights of
    enumerate_weighted_xcolorings added up, without listing them."""
    tables = _quandle_tables(diagram, quandle)
    return diagram.kernel(quandle.order, tables, 0, quandle.inner_orbits)[0]


class BeadCounter:
    """Bead counts over the X-colorings of one diagram, reading the
    diagram's plan and the form's step tables, both built once.

    The propagate engine reads a coloring only through its block key
    (block_key): the step-table triple of each crossing is one subscript
    of form.step_pairs by that crossing's block id and sign, and a bare
    count's seed orbits are form.seed_orbits of the key's set of ids.
    So colorings with one block key have one count, count_key(key),
    which compute_invariant calls once per key of the colorings it
    enumerated.  count and solutions, which take a coloring from the
    caller, check that it is an X-coloring under every engine.
    """

    def __init__(self, diagram, quandle, form):
        if not isinstance(form, BilinearForm):
            raise InputError("count_beads requires a validated BilinearForm")
        if form.quandle != quandle:
            raise InputError("form was validated against a different quandle")
        self.diagram = diagram
        self.quandle = quandle
        self.form = form
        self.vectors = form.vector_tables.vectors
        self.reads = [(c.under_in, c.over) for c in diagram.crossings]
        self.signs = [c.sign for c in diagram.crossings]

    @cached_property
    def crossing_checks(self):
        """Each crossing's arcs and the quandle table its sign reads
        forward, for _check_coloring; built on its first check, so a
        counter that counts only by key never builds it."""
        return [
            (c.under_in, c.over, c.under_out, forward)
            for c, (forward, *_) in zip(
                self.diagram.crossings, _quandle_tables(self.diagram, self.quandle)
            )
        ]

    def _check_coloring(self, coloring):
        """Raise InputError unless coloring is an X-coloring of the diagram."""
        order = self.quandle.order
        if len(coloring) != self.diagram.arc_count:
            raise InputError(
                f"coloring has {len(coloring)} entries for {self.diagram.arc_count} arcs"
            )
        for a, x in enumerate(coloring):
            if not isinstance(x, int) or not 0 <= x < order:
                raise InputError(f"arc {a} has color {x!r}, expected 0..{order - 1}")
        for i, (under_in, over, under_out, forward) in enumerate(self.crossing_checks):
            expected = forward[coloring[under_in]][coloring[over]]
            if coloring[under_out] != expected:
                raise InputError(
                    f"not an X-coloring: crossing {i} requires arc {under_out} "
                    f"to have color {expected}, got {coloring[under_out]}"
                )

    def block_key(self, coloring):
        """The id of the block B[f(under_in)][f(over)] at each crossing:
        all that the propagate engine reads of a coloring f."""
        ids = self.form.block_ids
        return tuple([ids[coloring[i]][coloring[o]] for i, o in self.reads])

    def _run(self, coloring, engine, limit):
        """(count, solutions) of one engine, or of both once they agree.

        Under "both" a listing compares every solution, and the
        oracle's sorted list is then cut to limit; a bare count
        (limit 0) compares the counts.
        """
        if engine not in ENGINES:
            raise InputError(f"unknown engine {engine!r}, expected one of {ENGINES}")
        self._check_coloring(coloring)
        if engine == "oracle":
            return self._count_oracle(coloring, limit)
        if engine == "propagate":
            return self._count_propagate(coloring, limit)
        every = 0 if limit == 0 else None
        count, sols = self._count_oracle(coloring, every)
        count_p, sols_p = self._count_propagate(coloring, every)
        if count != count_p or sols != sorted(sols_p):
            raise QBeadsError(
                f"engine disagreement: oracle={count} propagate={count_p} "
                f"for coloring {coloring}"
            )
        return count, sols[:limit]

    def count(self, coloring, engine="propagate"):
        return self._run(coloring, engine, 0)[0]

    def solutions(self, coloring, engine="propagate", limit=None):
        """Bead colorings as tuples of vectors, one per arc."""
        _, sols = self._run(coloring, engine, limit)
        return [tuple(self.vectors[i] for i in sol) for sol in sols]

    def _count_oracle(self, coloring, limit):
        """Assign every value to each arc in sweep_order; check each
        crossing once all three of its arcs are assigned, dropping the
        prefix at the first failed check.  Nothing is propagated.
        Solutions are sorted by their values in arc order, then cut to
        limit.

        This is the reference the plan is checked against
        (engine="both"): it uses only the forward step tables and no
        plan, seed order, inverse table or isometry."""
        order = sweep_order(self.diagram)
        position = {a: depth for depth, a in enumerate(order)}
        checks = [[] for _ in order]
        for c in self.diagram.crossings:
            x, y = coloring[c.under_in], coloring[c.over]
            table = self.form.step_table(x, y, c.sign)
            last = max(position[c.under_in], position[c.over], position[c.under_out])
            checks[last].append((c.under_in, c.over, c.under_out, table))
        count = 0
        sols = []
        assignment = [0] * len(order)
        nv = len(self.vectors)
        # path holds an iterator over the untried values of each arc on it:
        # a loop, not a call per arc, so no diagram passes the recursion limit
        path = [iter(range(nv))]
        while path:
            depth = len(path) - 1
            arc, arc_checks = order[depth], checks[depth]
            for v in path[depth]:
                assignment[arc] = v
                for ui, ov, uo, t in arc_checks:
                    if assignment[uo] != t[assignment[ui]][assignment[ov]]:
                        break
                else:
                    if depth + 1 < len(order):
                        path.append(iter(range(nv)))
                        break
                    count += 1
                    if limit != 0:
                        sols.append(tuple(assignment))
            else:
                path.pop()
        sols.sort()
        return count, sols if limit is None else sols[:limit]

    def _step_tables(self, key):
        """Each crossing's (forward, inverse, preimages) step-table triple
        under the block key key."""
        return list(map(self.form.step_pairs.__getitem__, zip(key, self.signs)))

    def count_key(self, key):
        """Number of bead colorings over every X-coloring whose block
        key is key (see block_key).

        Runs the diagram's plan over the step tables of the key, the
        first two seeds over the weighted orbits of the isometries of
        the blocks in it (form.seed_orbits).  No coloring is read, so
        nothing is validated but the key's length and, through
        seed_orbits, its ids: compute_invariant passes the keys of the
        colorings its plan enumerated, and count validates the coloring
        it takes before it keys it.
        """
        if len(key) != len(self.signs):
            raise InputError(f"block key has {len(key)} ids for {len(self.signs)} crossings")
        orbits = self.form.seed_orbits(frozenset(key))
        tables = self._step_tables(key)
        return self.diagram.kernel(len(self.vectors), tables, 0, orbits)[0]

    def _count_propagate(self, coloring, limit):
        """Run the diagram's plan over the step tables of the coloring's
        block key.

        A bare count (limit 0) is count_key of the key; a listing runs
        every value, so it lists every solution.
        """
        key = self.block_key(coloring)
        if limit == 0:
            return self.count_key(key), []
        return self.diagram.kernel(len(self.vectors), self._step_tables(key), limit, None)


def sweep_order(diagram):
    """The arcs in the order the oracle assigns them, from the crossings
    alone: greedily the arc that completes the most crossings, then the
    one that meets the most assigned arcs at its crossings, then the
    least.  Early checks cut most prefixes, where index order may leave
    every check to the last few arcs."""
    arcs_at = [[] for _ in range(diagram.arc_count)]
    for c in diagram.crossings:
        arcs = {c.under_in, c.over, c.under_out}
        for a in arcs:
            arcs_at[a].append(arcs)
    assigned = set()
    order = []

    def score(a):
        unset = [len(arcs - assigned) for arcs in arcs_at[a]]
        met = sum(map(len, arcs_at[a])) - sum(unset)
        return unset.count(1), met, -a

    remaining = set(range(diagram.arc_count))
    while remaining:
        a = max(remaining, key=score)
        remaining.remove(a)
        assigned.add(a)
        order.append(a)
    return order


def count_beads(diagram, quandle, form, coloring, engine="propagate"):
    """Number of bead colorings over one X-coloring."""
    return BeadCounter(diagram, quandle, form).count(coloring, engine=engine)


def bead_solutions(diagram, quandle, form, coloring, engine="propagate", limit=None):
    """The bead colorings themselves, as tuples of vectors per arc.

    The propagate engine lists them in lexicographic order of the
    vector indices at the seeds, the seeds taken in plan order
    (diagram.plan), which need not be ascending arc order; the oracle,
    and "both", in lexicographic order of the indices at every arc.  A
    limit keeps the first limit of that order."""
    return BeadCounter(diagram, quandle, form).solutions(
        coloring, engine=engine, limit=limit
    )
