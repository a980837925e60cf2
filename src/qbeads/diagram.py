"""Oriented link diagrams as arcs and crossings, plus PD import.

An arc is a maximal strand segment between consecutive underpasses; a
component with no underpass at all is a single closed arc.  A crossing
is recorded as (sign, under_in, over, under_out): walking the
under-strand in its orientation you arrive on arc under_in, pass below
arc over, and leave on arc under_out.  Arcs are 0-based ints in the
API; the text formats are 1-based.

A diagram also carries its components: one tuple of arcs per link
component, listed in orientation order (the starting arc of the cycle
is arbitrary but fixed).

PD import convention: a planar-diagram crossing X[a,b,c,d] lists the
four edge ends counterclockwise starting from the incoming under-strand
edge a, so the under-strand runs a -> c.  The over-strand runs d -> b
at a positive crossing and b -> d at a negative one.  Edge directions
are recovered globally: slot a is always incoming and slot c outgoing,
exactly one of slots b/d is incoming, and each edge label is incoming
at exactly one of its two occurrences.  Propagating those constraints
orients every edge except over-strands that never pass under anything;
those need the explicit sign list.  When explicit signs are supplied
they replace the inferred sign labels crossing by crossing.
"""

import re
import shlex
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

from .errors import InputError


@dataclass(frozen=True)
class Crossing:
    sign: int
    under_in: int
    over: int
    under_out: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InputError(f"crossing sign must be +1 or -1, got {self.sign!r}")


class LinkDiagram:
    """A closed oriented link diagram."""

    def __init__(self, name, arc_count, crossings, components, meta=None):
        self.name = name
        self.arc_count = arc_count
        self.crossings = tuple(
            c if isinstance(c, Crossing) else Crossing(*c) for c in crossings
        )
        self.components = tuple(tuple(comp) for comp in components)
        self.meta = dict(meta or {})

    def __repr__(self):
        return (
            f"<LinkDiagram {self.name!r}: {len(self.components)} components, "
            f"{self.arc_count} arcs, {len(self.crossings)} crossings>"
        )

    def canonical_key(self):
        """Structure key ignoring crossing order, component order, and
        the rotation of each component cycle (but not arc numbering)."""
        comps = []
        for comp in self.components:
            k = comp.index(min(comp))
            comps.append(comp[k:] + comp[:k])
        return (
            self.arc_count,
            tuple(sorted((c.sign, c.under_in, c.over, c.under_out) for c in self.crossings)),
            tuple(sorted(comps)),
        )

    def __eq__(self, other):
        return isinstance(other, LinkDiagram) and other.canonical_key() == self.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    @cached_property
    def plan(self):
        """The propagation plan, built on first use: see propagation_plan."""
        return propagation_plan(self)

    def validate(self):
        problems = validate_diagram(self)
        if problems:
            raise InputError(
                f"invalid diagram {self.name!r}: " + "; ".join(problems)
            )
        return self


def validate_diagram(diagram):
    """Return a list of structural problems, empty when consistent.

    Checks: arc ids in range, components partition the arcs, every arc
    is under_in/under_out of at most one crossing each, and following
    under_in -> under_out around each component reproduces its cyclic
    arc order.  An arc with no underpass must be a whole component (a
    free loop, which may still pass over other strands).
    """
    problems = []
    n = diagram.arc_count
    if n < 1:
        problems.append("diagram has no arcs")
        return problems

    def in_range(a):
        return 0 <= a < n

    for i, c in enumerate(diagram.crossings):
        for label, a in (("under_in", c.under_in), ("over", c.over), ("under_out", c.under_out)):
            if not in_range(a):
                problems.append(f"crossing {i}: {label} arc {a} out of range 0..{n - 1}")
    if problems:
        return problems

    seen = {}
    for ci, comp in enumerate(diagram.components):
        if not comp:
            problems.append(f"component {ci} is empty")
        for a in comp:
            if not in_range(a):
                problems.append(f"component {ci}: arc {a} out of range")
            elif a in seen:
                problems.append(f"arc {a} appears in components {seen[a]} and {ci}")
            else:
                seen[a] = ci
    if len(seen) < n:
        # seen holds only arcs in range, so the first len(seen) + 3 ids
        # hold the first three missing ones; n itself may be huge
        missing = [a for a in range(min(n, len(seen) + 3)) if a not in seen]
        listed = ", ".join(map(str, missing)) + (", ..." if n - len(seen) > 3 else "")
        problems.append(
            f"{n - len(seen)} of the {n} arcs belong to no component "
            f"(the components list {len(seen)}): arcs {listed}"
        )
    if problems:
        return problems

    under_in_at = {}
    under_out_at = {}
    for i, c in enumerate(diagram.crossings):
        if c.under_in in under_in_at:
            problems.append(
                f"arc {c.under_in} is under_in at crossings {under_in_at[c.under_in]} and {i}"
            )
        else:
            under_in_at[c.under_in] = i
        if c.under_out in under_out_at:
            problems.append(
                f"arc {c.under_out} is under_out at crossings {under_out_at[c.under_out]} and {i}"
            )
        else:
            under_out_at[c.under_out] = i
    if problems:
        return problems

    for ci, comp in enumerate(diagram.components):
        has_under = any(a in under_in_at for a in comp)
        if not has_under:
            if len(comp) != 1:
                problems.append(
                    f"component {ci} has {len(comp)} arcs but no underpass; "
                    "a free loop must be a single closed arc"
                )
            elif comp[0] in under_out_at:
                problems.append(
                    f"arc {comp[0]} is under_out of a crossing but never under_in"
                )
            continue
        k = len(comp)
        for idx, a in enumerate(comp):
            succ = comp[(idx + 1) % k]
            ci_x = under_in_at.get(a)
            if ci_x is None:
                problems.append(
                    f"component {ci}: arc {a} has no crossing with under_in = {a}"
                )
                continue
            out = diagram.crossings[ci_x].under_out
            if out != succ:
                problems.append(
                    f"component {ci}: under_in {a} leads to under_out {out}, "
                    f"but the component order expects {succ}"
                )
    return problems


# -- propagation plan -------------------------------------------------

# seed_arcs searches subsets smaller than its greedy seeds up to this
# many candidate arcs.  On 200 random 20-crossing braid closures that
# took 1.1 ms in the median and under 0.15 s at most (Xeon,
# CPython 3.11).
MAX_EXHAUSTIVE_ARCS = 20


def _closure(relations, known):
    """Bit mask of the arcs fixed by the arcs in the mask known.

    relations holds one (over bit, under-end bits) pair per crossing:
    once the over arc is known, either under end fixes the other, by a
    forward or a backward step.
    """
    grew = True
    while grew:
        grew = False
        for over, ends in relations:
            if known & over and known & ends and ends & ~known:
                known |= ends
                grew = True
    return known


def seed_arcs(diagram):
    """A minimum set of seed arcs, in ascending order.

    The seeds' values fix every other arc by forward and backward steps
    through crossings, and the fewest such arcs is the diagram's
    Wirtinger number (Blair, Kjuchukova, Velazquez and Villanueva,
    "Wirtinger systems of generators of knot groups").  An arc that is
    no crossing's under end, a free loop, is always a seed.  A step
    fixes an arc from its neighbour on the same component, so every
    other component holds a seed too.

    Greedy seeds (most over-passes first) are improved by dropping a
    seed or swapping two for one while the rest still fix every arc.
    That need not reach the minimum, so with at most MAX_EXHAUSTIVE_ARCS
    other arcs, subsets are then searched by size, from the component
    bound up to one fewer than the greedy seeds, and the first that
    fixes every arc wins.  Above that bound the seeds need not be a
    minimum set.
    """
    n = diagram.arc_count
    full = (1 << n) - 1
    relations = [
        (1 << c.over, 1 << c.under_in | 1 << c.under_out) for c in diagram.crossings
    ]
    ends = 0
    for _, bits in relations:
        ends |= bits
    forced = [a for a in range(n) if not ends >> a & 1]
    arcs = [a for a in range(n) if ends >> a & 1]
    base = full & ~ends

    def closes(seeds):
        return _closure(relations, base | sum(1 << a for a in seeds)) == full

    over_degree = [0] * n
    for c in diagram.crossings:
        over_degree[c.over] += 1
    seeds, known = [], base
    for a in sorted(arcs, key=lambda a: (-over_degree[a], a)):
        if not known >> a & 1:
            seeds.append(a)
            known = _closure(relations, known | 1 << a)
    while True:
        drops = ([s for s in seeds if s != d] for d in seeds)
        swaps = (
            [s for s in seeds if s not in pair] + [a]
            for pair in combinations(seeds, 2)
            for a in arcs
            if a not in seeds
        )
        better = next((c for c in chain(drops, swaps) if closes(c)), None)
        if better is None:
            break
        seeds = better
    if len(arcs) <= MAX_EXHAUSTIVE_ARCS:
        for k in range(len(diagram.components) - len(forced), len(seeds)):
            smaller = next((c for c in combinations(arcs, k) if closes(c)), None)
            if smaller is not None:
                seeds = list(smaller)
                break
    return sorted(forced + seeds)


def propagation_plan(diagram):
    """The order in which the seeds fix every arc: [(seed arc, steps)].

    The seeds are seed_arcs(diagram), in order.  A seed's steps are the
    crossings its value makes decidable once the seeds before it are
    known.  A step is (kind, crossing, target, source, over): "forward"
    sets under_out from under_in, "backward" sets under_in from
    under_out, and "check" compares under_out with the forward value.
    Every crossing gets exactly one step, and every arc is a seed or
    the target of exactly one forward or backward step.  The plan
    depends on the diagram alone, so LinkDiagram.plan builds it once.
    """
    n_arcs = diagram.arc_count
    crossings = diagram.crossings
    by_arc = [[] for _ in range(n_arcs)]
    for i, c in enumerate(crossings):
        for a in {c.under_in, c.over, c.under_out}:
            by_arc[a].append(i)
    known = [False] * n_arcs
    planned = [False] * len(crossings)
    plan = []
    for seed in seed_arcs(diagram):
        known[seed] = True
        steps, stack = [], [seed]
        while stack:
            for i in by_arc[stack.pop()]:
                c = crossings[i]
                if planned[i] or not known[c.over]:
                    continue
                if known[c.under_in]:
                    kind = "check" if known[c.under_out] else "forward"
                    step = (kind, i, c.under_out, c.under_in, c.over)
                elif known[c.under_out]:
                    step = ("backward", i, c.under_in, c.under_out, c.over)
                else:
                    continue
                planned[i] = True
                steps.append(step)
                if not known[step[2]]:
                    known[step[2]] = True
                    stack.append(step[2])
        plan.append((seed, steps))
    return plan


# -- text file format -------------------------------------------------

# tab and printable ASCII except quotes and backslash: on such a line
# str.split() and shlex.split() give the same tokens
_PLAIN_LINE = re.compile(r"[\t !#-&(-\[\]-~]*")


def _tokens(line):
    """shlex.split(line), without shlex where a plain split agrees."""
    if _PLAIN_LINE.fullmatch(line):
        return line.split()
    return shlex.split(line)


def parse_diagram(text, name=None):
    """Parse the diagram file format.

    Lines: ``link <name>``, ``arcs <k>``, one ``x <sign> <under_in>
    <over> <under_out>`` per crossing and one ``component <arc...>`` per
    component, all arcs 1-based.  Alternatively a single
    ``pd "<X[...] ...>" [signs <+->]`` line may replace the arcs/x/
    component lines.  ``#`` starts a comment; ``# key: value`` comments
    are collected into the diagram's meta dict.
    """
    meta = {}
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = re.match(r"#\s*([A-Za-z][\w-]*)\s*:\s*(.*\S)\s*$", stripped)
            if m:
                meta[m.group(1)] = m.group(2)
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise InputError("empty diagram file")

    link_name = name
    arc_count = None
    crossings = []
    components = []
    pd_text = None
    pd_signs = None
    for lineno, line in lines:
        try:
            parts = _tokens(line)
        except ValueError as e:
            raise InputError(f"line {lineno}: {e}")
        key = parts[0]
        if key == "link":
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'link <name>'")
            link_name = parts[1]
        elif key == "arcs":
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'arcs <count>'")
            try:
                arc_count = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: arc count {parts[1]!r} is not an integer")
        elif key == "x":
            if len(parts) != 5:
                raise InputError(
                    f"line {lineno}: expected 'x <sign> <under_in> <over> <under_out>'"
                )
            sign_token = parts[1]
            if sign_token not in ("+", "-"):
                raise InputError(f"line {lineno}: sign must be + or -, got {sign_token!r}")
            try:
                arcs = [int(t) for t in parts[2:5]]
            except ValueError:
                raise InputError(f"line {lineno}: crossing arcs must be integers")
            if any(a < 1 for a in arcs):
                raise InputError(f"line {lineno}: arcs are 1-based, got {arcs}")
            crossings.append(
                Crossing(1 if sign_token == "+" else -1, arcs[0] - 1, arcs[1] - 1, arcs[2] - 1)
            )
        elif key == "component":
            if len(parts) < 2:
                raise InputError(f"line {lineno}: component line lists at least one arc")
            try:
                comp = [int(t) for t in parts[1:]]
            except ValueError:
                raise InputError(f"line {lineno}: component arcs must be integers")
            if any(a < 1 for a in comp):
                raise InputError(f"line {lineno}: arcs are 1-based, got {comp}")
            components.append(tuple(a - 1 for a in comp))
        elif key == "pd":
            if len(parts) not in (2, 4) or (len(parts) == 4 and parts[2] != "signs"):
                raise InputError(
                    f'line {lineno}: expected \'pd "<code>" [signs <+->]\''
                )
            pd_text = parts[1]
            if len(parts) == 4:
                pd_signs = parts[3]
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")

    if link_name is None:
        raise InputError("missing 'link <name>' line")
    if pd_text is not None:
        if crossings or components:
            raise InputError("a pd line cannot be mixed with x/component lines")
        d = import_pd(pd_text, signs=pd_signs, name=link_name)
        d.meta.update(meta)
        return d
    if arc_count is None:
        raise InputError("missing 'arcs <count>' line")
    if not components:
        raise InputError("missing component lines")
    d = LinkDiagram(link_name, arc_count, crossings, components, meta=meta)
    return d.validate()


def format_diagram(diagram):
    """Render a diagram in the 1-based text file format."""
    out = []
    for key in sorted(diagram.meta):
        out.append(f"# {key}: {diagram.meta[key]}")
    out.append(f"link {diagram.name}")
    out.append(f"arcs {diagram.arc_count}")
    for c in diagram.crossings:
        sign = "+" if c.sign == 1 else "-"
        out.append(f"x {sign} {c.under_in + 1} {c.over + 1} {c.under_out + 1}")
    for comp in diagram.components:
        out.append("component " + " ".join(str(a + 1) for a in comp))
    return "\n".join(out) + "\n"


def load_diagram(path):
    with open(path, encoding="utf-8") as fh:
        return parse_diagram(fh.read())


# -- planar diagram (PD) import ---------------------------------------

_PD_CROSSING = re.compile(
    r"[Xx]\s*[\[\(]\s*(\d+)\s*[, ]\s*(\d+)\s*[, ]\s*(\d+)\s*[, ]\s*(\d+)\s*[\]\)]"
)


def _parse_signs(signs, count):
    if signs is None:
        return None
    if isinstance(signs, str):
        cleaned = signs.replace(",", "").replace(" ", "")
        if not re.fullmatch(r"[+-]+", cleaned):
            raise InputError(f"sign list {signs!r} may only contain + and -")
        values = [1 if ch == "+" else -1 for ch in cleaned]
    else:
        values = list(signs)
        if any(s not in (1, -1) for s in values):
            raise InputError(f"sign list entries must be +1 or -1, got {values!r}")
    if len(values) != count:
        raise InputError(f"sign list has {len(values)} entries for {count} crossings")
    return values


def import_pd(pd_text, signs=None, name="pd-link"):
    """Build a LinkDiagram from a planar diagram code.

    pd_text is a sequence of crossings like ``X[4,1,3,2] X[2,3,1,4]``
    (parentheses and comma or space separators also accepted).  signs,
    when given, is a string of + and - (or a list of +1/-1), one per
    crossing in order; it overrides the inferred sign labels and is
    required when some over-strand's direction cannot be inferred.
    """
    matches = list(_PD_CROSSING.finditer(pd_text))
    if not matches:
        raise InputError(f"no X[a,b,c,d] crossings found in {pd_text!r}")
    leftover = _PD_CROSSING.sub(" ", pd_text).replace(",", " ").strip()
    if leftover:
        raise InputError(f"unrecognized PD content: {leftover!r}")
    quads = [tuple(int(g) for g in m.groups()) for m in matches]
    n = len(quads)
    sign_overrides = _parse_signs(signs, n)

    occurrences = {}
    for ci, quad in enumerate(quads):
        for slot, edge in enumerate(quad):
            occurrences.setdefault(edge, []).append((ci, slot))
    for edge, occ in sorted(occurrences.items()):
        if len(occ) != 2:
            raise InputError(
                f"edge {edge} appears {len(occ)} times in the PD code, expected 2"
            )

    # direction[ci, slot] is True for incoming, False for outgoing
    direction = {}
    pending = []
    for ci in range(n):
        direction[(ci, 0)] = True
        direction[(ci, 2)] = False
        pending.append((ci, 0))
        pending.append((ci, 2))

    def assign(key, value):
        if key in direction:
            if direction[key] != value:
                ci, slot = key
                raise InputError(
                    f"inconsistent strand orientation at crossing {ci + 1} "
                    f"(edge {quads[ci][slot]})"
                )
            return
        direction[key] = value
        pending.append(key)

    def propagate():
        while pending:
            ci, slot = pending.pop()
            value = direction[(ci, slot)]
            if slot in (1, 3):
                assign((ci, 4 - slot), not value)
            edge = quads[ci][slot]
            for other in occurrences[edge]:
                if other != (ci, slot):
                    assign(other, not value)

    propagate()

    unresolved = sorted({ci for ci in range(n) if (ci, 1) not in direction})
    if unresolved:
        if sign_overrides is None:
            labels = ", ".join(str(ci + 1) for ci in unresolved)
            raise InputError(
                f"over-strand direction at crossing(s) {labels} cannot be "
                "inferred from the PD code; supply an explicit sign list"
            )
        for ci in unresolved:
            if (ci, 1) in direction:
                continue
            # positive means the over-strand runs d -> b
            assign((ci, 3), sign_overrides[ci] == 1)
            propagate()

    inferred_signs = []
    for ci in range(n):
        inferred_signs.append(1 if direction[(ci, 3)] else -1)
    final_signs = sign_overrides if sign_overrides is not None else inferred_signs

    # successor of each edge along its strand
    succ = {}
    over_in_edge = {}
    for ci, (a, b, c, d) in enumerate(quads):
        succ[a] = c
        if direction[(ci, 3)]:
            succ[d] = b
            over_in_edge[ci] = d
        else:
            succ[b] = d
            over_in_edge[ci] = b

    # arcs: over-passages keep the arc alive, underpasses break it
    parent = {e: e for e in occurrences}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(e, f):
        re_, rf = find(e), find(f)
        if re_ != rf:
            parent[re_] = rf

    for ci in range(n):
        union(over_in_edge[ci], succ[over_in_edge[ci]])

    # walk components in edge order, numbering arcs as first encountered
    arc_id = {}
    components = []
    visited = set()
    for start in sorted(occurrences):
        if start in visited:
            continue
        cycle = []
        e = start
        while True:
            visited.add(e)
            cycle.append(e)
            e = succ[e]
            if e == start:
                break
        comp_arcs = []
        for e in cycle:
            root = find(e)
            if root not in arc_id:
                arc_id[root] = len(arc_id)
            a = arc_id[root]
            if not comp_arcs or comp_arcs[-1] != a:
                comp_arcs.append(a)
        if len(comp_arcs) > 1 and comp_arcs[0] == comp_arcs[-1]:
            comp_arcs.pop()
        components.append(tuple(comp_arcs))

    crossings = []
    for ci, (a, b, c, d) in enumerate(quads):
        crossings.append(
            Crossing(
                final_signs[ci],
                arc_id[find(a)],
                arc_id[find(over_in_edge[ci])],
                arc_id[find(c)],
            )
        )
    meta = {"pd": " ".join("X[%d,%d,%d,%d]" % q for q in quads)}
    if sign_overrides is not None:
        meta["pd-signs"] = "".join("+" if s == 1 else "-" for s in final_signs)
    d = LinkDiagram(name, len(arc_id), crossings, components, meta=meta)
    return d.validate()
