"""Oriented link diagrams as arcs and crossings, their propagation plans
and the plans' compiled kernels, plus PD import.

An arc is a maximal strand segment between consecutive underpasses; a
component with no underpass at all is a single closed arc.  A crossing
is recorded as (sign, under_in, over, under_out): walking the
under-strand in its orientation you arrive on arc under_in, pass below
arc over, and leave on arc under_out.  Arcs are 0-based ints in the
API; the text formats are 1-based.  A Crossing is that 4-tuple, with
named fields and a checked sign: it compares equal to, and hashes as,
the plain tuple.

A diagram also carries its components: one tuple of arcs per link
component, listed in orientation order (the starting arc of the cycle
is arbitrary but fixed).

Colorings are counted along a propagation plan (propagation_plan): a
minimum set of seed arcs (seed_arcs), run one after another, each
seed's stage deriving the arcs its value fixes and checking the
crossings it closes.  A check passes about one value in size, so the
seeds run in a cost order that closes checks early: on P(3,3,3,3,3)
that turns a size^5 count into a size^3 one.  The plan is compiled
into a kernel with one nested for loop per seed (kernel_source).  From
the third seed on, the plan marks as its stage's "key" the first check
whose over arc is the seed and whose under ends are already fixed; the
kernel loops that seed over the preimages that pass the key, not over
every value.

PD import convention: a planar-diagram crossing X[a,b,c,d] lists the
four edge ends counterclockwise starting from the incoming under-strand
edge a, so the under-strand runs a -> c.  The over-strand runs d -> b
at a positive crossing and b -> d at a negative one.  Edge directions
are recovered globally: slot a is always incoming and slot c outgoing,
exactly one of slots b/d is incoming, and each edge label is incoming
at exactly one of its two occurrences.  Propagating those constraints
orients every edge except over-strands that never pass under anything;
those need the explicit sign list.  When explicit signs are supplied
they replace the inferred sign labels crossing by crossing.  The code is
then read as a strand walk, a signed Gauss code (Kauffman, "Virtual
knot theory", 1999): each component is walked from its least edge
label, and an arc is cut where the walk passes under a crossing.
"""

import re
import shlex
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, combinations

from .errors import InputError, read_text


class Crossing(namedtuple("Crossing", "sign under_in over under_out")):
    """One crossing, (sign, under_in, over, under_out): a tuple, so it
    compares equal to, and hashes as, its plain 4-tuple.  The sign is +1
    or -1."""

    __slots__ = ()

    def __new__(cls, sign, under_in, over, under_out):
        if sign not in (1, -1):
            raise InputError(f"crossing sign must be +1 or -1, got {sign!r}")
        return tuple.__new__(cls, (sign, under_in, over, under_out))

    @classmethod
    def _make(cls, iterable):
        """namedtuple's _make, and so _replace, through the sign check."""
        return cls(*iterable)


class LinkDiagram:
    """A closed oriented link diagram.  Diagrams compare and hash by
    identity."""

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

    @cached_property
    def _planned(self):
        """(plan, kernel), looked up once per diagram: see compile_structure."""
        return compile_structure(self.arc_count, self.crossings, len(self.components))

    @cached_property
    def plan(self):
        """The propagation plan, shared by every diagram of the same
        structure: see propagation_plan."""
        return self._planned[0]

    @cached_property
    def kernel(self):
        """The plan compiled, shared like the plan: see compile_plan."""
        return self._planned[1]

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

    for i, (_, under_in, over, under_out) in enumerate(diagram.crossings):
        if not (0 <= under_in < n and 0 <= over < n and 0 <= under_out < n):
            for label, a in (("under_in", under_in), ("over", over), ("under_out", under_out)):
                if not 0 <= a < n:
                    problems.append(f"crossing {i}: {label} arc {a} out of range 0..{n - 1}")
    if problems:
        return problems

    seen = {}
    for ci, comp in enumerate(diagram.components):
        if not comp:
            problems.append(f"component {ci} is empty")
        for a in comp:
            if not 0 <= a < n:
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
    for i, (_, under_in, _, under_out) in enumerate(diagram.crossings):
        if under_in in under_in_at:
            problems.append(
                f"arc {under_in} is under_in at crossings {under_in_at[under_in]} and {i}"
            )
        else:
            under_in_at[under_in] = i
        if under_out in under_out_at:
            problems.append(
                f"arc {under_out} is under_out at crossings {under_out_at[under_out]} and {i}"
            )
        else:
            under_out_at[under_out] = i
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
    return _seed_arcs(diagram.arc_count, diagram.crossings, len(diagram.components))


def _seed_arcs(n, crossings, component_count):
    """seed_arcs of a diagram with n arcs, these crossings and
    component_count components: all that the seeds depend on."""
    full = (1 << n) - 1
    relations = [(1 << c.over, 1 << c.under_in | 1 << c.under_out) for c in crossings]
    ends = 0
    for _, bits in relations:
        ends |= bits
    forced = [a for a in range(n) if not ends >> a & 1]
    arcs = [a for a in range(n) if ends >> a & 1]
    base = full & ~ends

    def closes(seeds):
        return _closure(relations, base | sum(1 << a for a in seeds)) == full

    over_degree = [0] * n
    for c in crossings:
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
        for k in range(component_count - len(forced), len(seeds)):
            smaller = next((c for c in combinations(arcs, k) if closes(c)), None)
            if smaller is not None:
                seeds = list(smaller)
                break
    return sorted(forced + seeds)


def propagation_plan(diagram):
    """The order in which the seeds fix every arc: ((seed arc, steps), ...).

    The seeds are seed_arcs(diagram).  A seed's steps are the crossings
    its value makes decidable once the seeds before it are known.  A
    step is (kind, crossing, target, source, over), of four kinds:
    "forward" sets under_out from under_in, "backward" sets under_in
    from under_out, "check" compares under_out with the forward value,
    and "key" is a check that keys its stage's loop.  Every crossing
    gets exactly one step, and every arc is a seed or the target of
    exactly one forward or backward step.

    The key is decided where a stage is built.  From the third seed on,
    the first check whose over arc is the seed and whose under ends the
    earlier seeds fixed is a "key", so a stage holds at most one.  Only
    the values in row source of that crossing's forward table that map
    to target pass it, so the stage loops over those preimages, in
    ascending order, and drops the check (see kernel_source).  The
    first two seeds run over their weighted orbits and are never keyed.

    The seeds run in the order of a cost model.  A kernel runs stage k
    about size^(k + 1 - C) times, C the checks and keys of stages
    0..k-1, since each passes about one value in size; so a count costs
    about size to the largest such exponent, and early checks lower it.
    The next seed is the one whose stage has a key, which loops over
    the few values that pass it instead of all size of them, then the
    one whose stage closes the most checks and keys, then the one that
    fixes the most arcs, then the least arc.  On P(3,3,3,3,3) ascending
    seeds leave all five checks to the last stage, a size^5 count; this
    order closes one at each of stages 2 and 3 and three at stage 4, a
    size^3 count.  The order is greedy, so it need not reach the least
    exponent.

    The plan reads only the arc count, the crossings in their order and
    the number of components, so diagrams that share those share one
    plan (compile_structure), and it is a tuple of tuples, never changed.
    """
    return _propagation_plan(diagram.arc_count, diagram.crossings, len(diagram.components))


def _propagation_plan(n_arcs, crossings, component_count):
    """propagation_plan of a diagram with n_arcs arcs, these crossings
    and component_count components."""
    by_arc = [[] for _ in range(n_arcs)]
    for i, c in enumerate(crossings):
        for a in {c.under_in, c.over, c.under_out}:
            by_arc[a].append(i)
    known = [False] * n_arcs
    planned = [False] * len(crossings)

    def stage(seed):
        """The steps of seed's stage if it ran next, its key marked, and
        the arcs they fix; known and planned are left as they are."""
        fixed, stepped = {seed}, set()
        keyable = len(plan) >= 2

        def is_known(a):
            return known[a] or a in fixed

        steps, stack = [], [seed]
        while stack:
            for i in by_arc[stack.pop()]:
                c = crossings[i]
                if planned[i] or i in stepped or not is_known(c.over):
                    continue
                if is_known(c.under_in):
                    kind = "check" if is_known(c.under_out) else "forward"
                    if keyable and c.over == seed and known[c.under_in] and known[c.under_out]:
                        kind, keyable = "key", False
                    step = (kind, i, c.under_out, c.under_in, c.over)
                elif is_known(c.under_out):
                    step = ("backward", i, c.under_in, c.under_out, c.over)
                else:
                    continue
                stepped.add(i)
                steps.append(step)
                if not is_known(step[2]):
                    fixed.add(step[2])
                    stack.append(step[2])
        return tuple(steps), fixed

    def cost(seed, steps, fixed):
        keyed = any(kind == "key" for kind, *_ in steps)
        checks = sum(kind in ("check", "key") for kind, *_ in steps)
        return keyed, checks, len(fixed), -seed

    plan = []
    seeds = _seed_arcs(n_arcs, crossings, component_count)
    while seeds:
        stages = {seed: stage(seed) for seed in seeds}
        seed = max(seeds, key=lambda s: cost(s, *stages[s]))
        steps, fixed = stages[seed]
        for a in fixed:
            known[a] = True
        for step in steps:
            planned[step[1]] = True
        seeds.remove(seed)
        plan.append((seed, steps))
    return tuple(plan)


# -- compiled plan ----------------------------------------------------

# CPython compiles at most 20 statically nested blocks in one function,
# and a kernel nests one for loop per seed: the kernel runs at most this
# many seeds itself and hands the deeper ones to sibling functions
MAX_KERNEL_SEEDS = 20

# compile_structure keeps the plans and kernels of this many diagram
# structures.  A batch that loads its diagrams afresh each time, like
# the benchmark's catalog batch (18 links on 8 labellings, up to 144
# distinct structures a pass), cycles through its structures, and a
# least-recently-used cache smaller than the cycle never hits
KERNEL_CACHE_SIZE = 256


def _loops(plan, start, stop, indent):
    """The source lines of the nested for loops of seeds plan[start:stop],
    a keyed stage looping over its key's preimages, the first indented
    by indent levels, and the padding of their body."""
    lines = []
    for depth in range(start, stop):
        seed, steps = plan[depth]
        pad = "    " * (indent + depth - start)
        keys = [step for step in steps if step[0] == "key"]
        if depth == 0:
            lines.append(f"{pad}for a{int(seed)}, k0 in first:")
        elif depth == 1:
            lines.append(f"{pad}for a{int(seed)}, k1 in second[a{int(plan[0][0])}]:")
        elif keys:
            _, i, target, source, _ = keys[0]
            lines.append(f"{pad}for a{int(seed)} in p{int(i)}[a{int(source)}][a{int(target)}]:")
        else:
            lines.append(f"{pad}for a{int(seed)} in every:")
        pad += "    "
        for kind, i, target, source, over in steps:
            value = f"t{int(i)}[a{int(source)}][a{int(over)}]"
            if kind == "check":
                lines += [f"{pad}if a{int(target)} != {value}:", f"{pad}    continue"]
            elif kind in ("forward", "backward"):
                lines.append(f"{pad}a{int(target)} = {value}")
        if depth == 1:
            lines.append(f"{pad}w = k0 * k1")
    return lines, "    " * (indent + stop - start)


def kernel_source(plan):
    """The source of compile_plan's kernel for a plan.

    Each seed gets one for loop, nested in plan order, and each step
    one line: an assignment for a derive step, an if and continue for a
    check.  Arcs are locals a<arc> and each crossing's table is bound
    once, as t<crossing>.  Only the first two seeds carry weights.  A
    stage with a "key" step (propagation_plan) loops over the ascending
    preimages of the key's target in row source of its forward table,
    read from the third member of the crossing's tables, bound as
    p<crossing> (see quandle.Preimages), and has no line for the key.
    A bare count (limit 0) tests that it lists nothing once per
    call, not once per solution.  The kernel nests the loops of the
    first MAX_KERNEL_SEEDS seeds; each further run of at most
    MAX_KERNEL_SEEDS seeds goes to a function part<k> defined in the
    kernel, which takes the arcs fixed so far and the weight, and
    returns its count.  The parts are siblings, each calling the next
    from its innermost loop, so no function nests more loops, or more
    indentation, than CPython compiles.  The text is built from int()
    of the plan's numbers and fixed names alone, so nothing in a
    diagram can add to it.
    """
    # the first seed of each part, and where each run of loops ends
    starts = list(range(MAX_KERNEL_SEEDS, len(plan), MAX_KERNEL_SEEDS))
    ends = starts + [len(plan)]
    lines = ["def kernel(size, tables, limit, orbits):"]
    # the arcs fixed so far, and the parameters of each part: the arcs
    # fixed before it, and the weight
    fixed, params = [], []
    for depth, (seed, steps) in enumerate(plan):
        if depth in starts:
            params.append("".join(f"a{a}, " for a in sorted(fixed)) + "w")
        fixed.append(int(seed))
        for kind, i, target, *_ in steps:
            if kind == "key":
                lines.append(f"    p{int(i)} = tables[{int(i)}][2]")
            else:
                lines.append(f"    t{int(i)} = tables[{int(i)}][{int(kind == 'backward')}]")
            if kind in ("forward", "backward"):
                fixed.append(int(target))
    lines += [
        "    every = range(size)",
        "    if orbits is None:",
        "        first = [(v, 1) for v in every]",
        "        second = [first] * size",
        "    else:",
        "        first, second = orbits",
        "    listing = limit is None or limit > 0",
        "    count = 0",
        "    sols = []",
    ]
    weight = ("1", "k0", "w")[min(len(plan), 2)]
    solution = "(" + "".join(f"a{a}," for a in range(len(fixed))) + ")"

    def innermost(k, pad):
        """The body of the innermost loop of run k (0 for the kernel's
        own): a call of the next part, or, after the last seed, the
        solution counted and listed."""
        if k < len(starts):
            return [f"{pad}count += part{k + 1}({params[k]})"]
        return [
            f"{pad}count += {weight}",
            f"{pad}if listing and (limit is None or len(sols) < limit):",
            f"{pad}    sols.append({solution} if orbits is None else ({solution}, {weight}))",
        ]

    for k, start in enumerate(starts, 1):
        body, pad = _loops(plan, start, ends[k], 2)
        lines += [f"    def part{k}({params[k - 1]}):", "        count = 0", *body]
        lines += innermost(k, pad) + ["        return count"]
    body, pad = _loops(plan, 0, ends[0], 1)
    lines += body + innermost(0, pad)
    lines.append("    return count, sols")
    return "\n".join(lines) + "\n"


def compile_plan(plan):
    """The plan as one generated function (see kernel_source):
    kernel(size, tables, limit, orbits) -> (count, solutions).

    It runs the plan over the values 0..size-1.  tables[i] is the
    (forward, inverse, preimages) triple of crossing i: the tables are
    indexed [source][over], and preimages indexes the forward table by
    value as quandle.Preimages does; a kernel reads it only at the
    crossings of "key" steps (propagation_plan).  Solutions come in
    lexicographic order of the seed values, taken in plan order, which
    is propagation_plan's cost order and need not be ascending, the
    first limit of them (all when limit is None).

    orbits, when given, is (first, second) as quandle.weighted_orbits
    returns it: the first seed runs over the (value, weight) pairs of
    first, the second over those of second[first seed's value], each
    solution counts the product of its weights and is listed as
    (values, weight).  Without it every value has weight 1.

    Each call compiles afresh; LinkDiagram.kernel compiles once per
    diagram structure (compile_structure).
    """
    namespace = {}
    exec(compile(kernel_source(plan), "<plan kernel>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def compile_structure(arc_count, crossings, component_count):
    """(plan, kernel) of every diagram with these arcs, these crossings
    in this order and this many components, which are all that the
    plan reads: the plan built (propagation_plan) and compiled
    (compile_plan) once per process for each structure, up to
    KERNEL_CACHE_SIZE of them.  So a diagram loaded again plans and
    compiles nothing.  The key holds ints and Crossings, tuples of
    ints that hash and compare in C, never a diagram; it must keep the
    crossing order, since the plan's steps name crossings by index."""
    plan = _propagation_plan(arc_count, crossings, component_count)
    return plan, compile_plan(plan)


# -- text file format -------------------------------------------------

# tab and printable ASCII except quotes and backslash: on such a line
# str.split() and shlex.split() give the same tokens
_PLAIN_LINE = re.compile(r"[\t !#-&(-\[\]-~]*")


def _tokens(line):
    """shlex.split(line), without shlex where a plain split agrees."""
    if _PLAIN_LINE.fullmatch(line):
        return line.split()
    return shlex.split(line)


# a "# key: value" comment, whose pair goes into the diagram's meta
_META = re.compile(r"#\s*([A-Za-z][\w-]*)\s*:\s*(.*\S)\s*$")


def parse_diagram(text, name=None):
    """Parse the diagram file format.

    Lines: ``link <name>``, ``arcs <k>``, one ``x <sign> <under_in>
    <over> <under_out>`` per crossing and one ``component <arc...>`` per
    component, all arcs 1-based.  Alternatively a single
    ``pd "<X[...] ...>" [signs <+->]`` line may replace the arcs/x/
    component lines.  The link, arcs and pd lines appear at most once
    each.  ``#`` starts a comment; ``# key: value`` comments are
    collected into the diagram's meta dict.
    """
    meta = {}
    link_name = name
    arc_count = None
    crossings = []
    components = []
    pd_text = None
    pd_signs = None
    first = {}  # the line of each link, arcs and pd line

    def once(key, lineno):
        if key in first:
            raise InputError(f"line {lineno}: repeated {key!r} line, first on line {first[key]}")
        first[key] = lineno
        if "arcs" in first and "pd" in first:
            raise InputError(f"line {lineno}: a pd line cannot be mixed with an arcs line")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            m = _META.match(line)
            if m:
                meta[m.group(1)] = m.group(2)
            continue
        try:
            parts = _tokens(line)
        except ValueError as e:
            raise InputError(f"line {lineno}: {e}")
        key = parts[0]
        if key == "x":
            if len(parts) != 5:
                raise InputError(
                    f"line {lineno}: expected 'x <sign> <under_in> <over> <under_out>'"
                )
            sign = parts[1]
            if sign != "+" and sign != "-":
                raise InputError(f"line {lineno}: sign must be + or -, got {sign!r}")
            try:
                under_in, over, under_out = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise InputError(f"line {lineno}: crossing arcs must be integers")
            if min(under_in, over, under_out) < 1:
                raise InputError(
                    f"line {lineno}: arcs are 1-based, got {[under_in, over, under_out]}"
                )
            crossings.append(
                Crossing(1 if sign == "+" else -1, under_in - 1, over - 1, under_out - 1)
            )
        elif key == "component":
            if len(parts) < 2:
                raise InputError(f"line {lineno}: component line lists at least one arc")
            try:
                comp = [int(t) for t in parts[1:]]
            except ValueError:
                raise InputError(f"line {lineno}: component arcs must be integers")
            if min(comp) < 1:
                raise InputError(f"line {lineno}: arcs are 1-based, got {comp}")
            components.append(tuple([a - 1 for a in comp]))
        elif key == "link":
            once(key, lineno)
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'link <name>'")
            link_name = parts[1]
        elif key == "arcs":
            once(key, lineno)
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'arcs <count>'")
            try:
                arc_count = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: arc count {parts[1]!r} is not an integer")
        elif key == "pd":
            once(key, lineno)
            if len(parts) not in (2, 4) or (len(parts) == 4 and parts[2] != "signs"):
                raise InputError(
                    f'line {lineno}: expected \'pd "<code>" [signs <+->]\''
                )
            pd_text = parts[1]
            if len(parts) == 4:
                pd_signs = parts[3]
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    # every other line raised or was recorded
    if not (first or crossings or components):
        raise InputError("empty diagram file")

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
    return parse_diagram(read_text(path))


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

    Components come in the order of their least edge labels.  Each is
    walked from that edge, and its arcs are numbered in walk order: an
    edge that is some crossing's under-in edge a ends its arc, the run
    after the last underpass is the arc the walk began on, and a
    component with no underpass is one arc.  Crossings keep the order
    of the code.
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

    # successor of each edge along its strand; an edge that is some
    # crossing's under-in edge a ends its arc
    succ = {}
    for ci, (a, b, c, d) in enumerate(quads):
        succ[a] = c
        if direction[(ci, 3)]:
            succ[d] = b
        else:
            succ[b] = d
    ends = {a for a, _, _, _ in quads}

    # the run after a component's last underpass wraps round to the arc
    # the walk began on
    arc_of = {}
    components = []
    arcs = 0
    for start in sorted(occurrences):
        if start in arc_of:
            continue
        cycle = [start]
        while succ[cycle[-1]] != start:
            cycle.append(succ[cycle[-1]])
        cuts = sum(e in ends for e in cycle) or 1
        passed = 0
        for e in cycle:
            arc_of[e] = arcs + passed % cuts
            passed += e in ends
        components.append(tuple(range(arcs, arcs + cuts)))
        arcs += cuts

    # both over edges b and d lie on the over arc
    crossings = [
        Crossing(final_signs[ci], arc_of[a], arc_of[b], arc_of[c])
        for ci, (a, b, c, _) in enumerate(quads)
    ]
    meta = {"pd": " ".join("X[%d,%d,%d,%d]" % q for q in quads)}
    if sign_overrides is not None:
        meta["pd-signs"] = "".join("+" if s == 1 else "-" for s in final_signs)
    d = LinkDiagram(name, arcs, crossings, components, meta=meta)
    return d.validate()
