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

Two counting engines are provided.  "oracle" enumerates assignments in
arc-index order, checking each crossing as soon as its last arc gets a
value and abandoning the prefix on failure -- no value is ever derived,
only checked.  "propagate" backtracks over arcs (most-shared over arcs
first) and propagates both crossing directions through forward and
inverse step tables.  They must always agree; "both" runs both and
raises on any mismatch.
"""

from .errors import InputError, QBeadsError
from .field import VectorTables
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


def enumerate_xcolorings(diagram, quandle):
    """All X-colorings, as tuples indexed by arc, in sorted order.

    Backtracks over arcs in component order; propagates each crossing
    in both directions as soon as two of its three arcs are colored.
    """
    order = [a for comp in diagram.components for a in comp]
    by_arc = [[] for _ in range(diagram.arc_count)]
    for i, c in enumerate(diagram.crossings):
        for a in {c.under_in, c.over, c.under_out}:
            by_arc[a].append(i)
    crossings = diagram.crossings
    colors = [None] * diagram.arc_count
    found = []

    def propagate(assigned):
        """Assign propagated colors; return (ok, newly assigned arcs)."""
        stack = [assigned]
        news = []
        while stack:
            arc = stack.pop()
            for ci in by_arc[arc]:
                c = crossings[ci]
                cu, co, co2 = colors[c.under_in], colors[c.over], colors[c.under_out]
                if co is None:
                    continue
                if cu is not None:
                    want = quandle.op_signed(cu, co, c.sign)
                    if co2 is None:
                        colors[c.under_out] = want
                        news.append(c.under_out)
                        stack.append(c.under_out)
                    elif co2 != want:
                        return False, news
                elif co2 is not None:
                    want = quandle.op_signed(co2, co, -c.sign)
                    colors[c.under_in] = want
                    news.append(c.under_in)
                    stack.append(c.under_in)
        return True, news

    def backtrack(pos):
        while pos < len(order) and colors[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            found.append(tuple(colors))
            return
        arc = order[pos]
        for x in range(quandle.order):
            colors[arc] = x
            ok, news = propagate(arc)
            if ok:
                backtrack(pos + 1)
            for a in news:
                colors[a] = None
            colors[arc] = None

    backtrack(0)
    return sorted(found)


def counting_invariant(diagram, quandle):
    """Number of X-colorings of the diagram."""
    return len(enumerate_xcolorings(diagram, quandle))


class BeadCounter:
    """Precomputed index tables for counting bead colorings of one
    diagram over one form, reused across all X-colorings."""

    def __init__(self, diagram, quandle, form):
        if not isinstance(form, BilinearForm):
            raise InputError("count_beads requires a validated BilinearForm")
        if form.quandle != quandle:
            raise InputError("form was validated against a different quandle")
        self.diagram = diagram
        self.quandle = quandle
        self.form = form
        tables = VectorTables(form.field, form.n)
        self.vectors, self.vadd, self.smul = tables.vectors, tables.vadd, tables.smul
        self.nv = len(self.vectors)
        self.bil = form.eval_table()
        self.p = form.field.p

    def _step_table(self, x, y, sign):
        """out-index = f(in-index, over-index) at a crossing colored (x, y)."""
        bil = self.bil[x][y]
        vadd, smul, p = self.vadd, self.smul, self.p
        return [
            [vadd[i][smul[(sign * bil[i][j]) % p][j]] for j in range(self.nv)]
            for i in range(self.nv)
        ]

    def count(self, coloring, engine="propagate"):
        if engine not in ENGINES:
            raise InputError(f"unknown engine {engine!r}, expected one of {ENGINES}")
        _check_coloring(self.diagram, self.quandle, coloring)
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
        _check_coloring(self.diagram, self.quandle, coloring)
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
        prefix at the first failed check.  Nothing is propagated."""
        n_arcs = self.diagram.arc_count
        checks = [[] for _ in range(n_arcs)]
        for c in self.diagram.crossings:
            x, y = coloring[c.under_in], coloring[c.over]
            table = self._step_table(x, y, c.sign)
            checks[max(c.under_in, c.over, c.under_out)].append(
                (c.under_in, c.over, c.under_out, table)
            )
        count = 0
        sols = []
        want_sols = limit is None or limit > 0
        assignment = [0] * n_arcs
        nv = self.nv

        def sweep(depth):
            nonlocal count
            if depth == n_arcs:
                count += 1
                if want_sols and (limit is None or len(sols) < limit):
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
        """Backtrack over arcs (most-shared over arcs first), propagating
        each crossing forward and backward as its inputs fill in."""
        n_arcs = self.diagram.arc_count
        over_degree = [0] * n_arcs
        for c in self.diagram.crossings:
            over_degree[c.over] += 1
        order = sorted(range(n_arcs), key=lambda a: (-over_degree[a], a))

        # forward[(in, over) -> out] and inverse tables per crossing
        fwd = []
        inv = []
        by_arc = [[] for _ in range(n_arcs)]
        for i, c in enumerate(self.diagram.crossings):
            x, y = coloring[c.under_in], coloring[c.over]
            x_out = coloring[c.under_out]
            fwd.append(self._step_table(x, y, c.sign))
            inv.append(self._step_table(x_out, y, -c.sign))
            for a in {c.under_in, c.over, c.under_out}:
                by_arc[a].append(i)
        crossings = self.diagram.crossings

        beads = [None] * n_arcs
        count = 0
        sols = []
        want_sols = limit is None or limit > 0

        def propagate(arc):
            stack = [arc]
            news = []
            while stack:
                a = stack.pop()
                for ci in by_arc[a]:
                    c = crossings[ci]
                    b_in = beads[c.under_in]
                    b_ov = beads[c.over]
                    b_out = beads[c.under_out]
                    if b_ov is None:
                        continue
                    if b_in is not None:
                        want = fwd[ci][b_in][b_ov]
                        if b_out is None:
                            beads[c.under_out] = want
                            news.append(c.under_out)
                            stack.append(c.under_out)
                        elif b_out != want:
                            return False, news
                    elif b_out is not None:
                        beads[c.under_in] = inv[ci][b_out][b_ov]
                        news.append(c.under_in)
                        stack.append(c.under_in)
            return True, news

        def backtrack(pos):
            nonlocal count
            while pos < n_arcs and beads[order[pos]] is not None:
                pos += 1
            if pos == n_arcs:
                count += 1
                if want_sols and (limit is None or len(sols) < limit):
                    sols.append(tuple(beads))
                return
            arc = order[pos]
            for v in range(self.nv):
                beads[arc] = v
                ok, news = propagate(arc)
                if ok:
                    backtrack(pos + 1)
                for a in news:
                    beads[a] = None
                beads[arc] = None

        backtrack(0)
        return count, sols


def count_beads(diagram, quandle, form, coloring, engine="propagate"):
    """Number of bead colorings over one X-coloring."""
    return BeadCounter(diagram, quandle, form).count(coloring, engine=engine)


def bead_solutions(diagram, quandle, form, coloring, engine="propagate", limit=None):
    """The bead colorings themselves, as tuples of vectors per arc."""
    return BeadCounter(diagram, quandle, form).solutions(
        coloring, engine=engine, limit=limit
    )
