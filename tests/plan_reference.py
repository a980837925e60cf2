"""The propagation plan interpreted: the reference that the compiled
kernels (diagram.compile_plan) are tested against.

The package runs every plan on its kernel, which unrolls this loop into
one nested for loop per seed with a line per step.  solve takes the
same arguments as a kernel and must return the same (count, solutions):
the tests compare the two on every catalog, tests/data and benchmark
diagram, and tests/test_isometries.py counts with it to check the
reduced counts.  ascending_plan builds a plan of the same seeds in
ascending arc order, which the cost order of propagation_plan replaced,
so counts can be checked against a plan the package does not build.
"""

from qbeads.diagram import seed_arcs


def ascending_plan(diagram):
    """The plan of diagram's seeds (seed_arcs) in ascending arc order,
    each stage taking every step its seed makes decidable, found by
    sweeping the crossings again after each step: plans had this order
    before propagation_plan's cost order, and the tests check counts
    against it."""
    known, planned, plan = set(), set(), []
    for seed in seed_arcs(diagram):
        known.add(seed)
        steps = []
        while True:
            for i, c in enumerate(diagram.crossings):
                if i in planned or c.over not in known:
                    continue
                if c.under_in in known:
                    kind = "check" if c.under_out in known else "forward"
                    step = (kind, i, c.under_out, c.under_in, c.over)
                elif c.under_out in known:
                    step = ("backward", i, c.under_in, c.under_out, c.over)
                else:
                    continue
                planned.add(i)
                known.add(step[2])
                steps.append(step)
                break
            else:
                break
        plan.append((seed, tuple(steps)))
    return tuple(plan)


def solve(plan, size, tables, limit, orbits=None):
    """Run a plan over values 0..size-1; return (count, solutions), which
    is what diagram.compile_plan's kernel must return for the same
    arguments.

    tables[i] is the (forward, inverse) pair of crossing i, indexed
    [source][over]; a kernel's tables carry a third member, the
    preimages of the forward table, which solve does not read: every
    stage runs every value and checks every check, a "key" step
    (diagram.propagation_plan) like any other check.  Solutions come in
    lexicographic order of the seed values, taken in plan order, the
    first `limit` of them (all when limit is None).  The arcs a seed's
    steps write are fixed, so its next value just overwrites them:
    nothing is undone.

    orbits, when given, is (first, second) as quandle.weighted_orbits
    returns it: the first seed runs over the (value, weight) pairs of
    first, the second over those of second[first seed's value], each
    solution counts the product of its weights and is listed as
    (values, weight).  Without it every value has weight 1.
    """
    stages = [
        (
            seed,
            [
                (target, source, over, tables[i][kind == "backward"], kind in ("check", "key"))
                for kind, i, target, source, over in steps
            ],
        )
        for seed, steps in plan
    ]
    # every arc is a seed or the target of one derive step
    values = [0] * sum(
        1 + sum(kind in ("forward", "backward") for kind, *_ in steps) for _, steps in plan
    )
    # each stage's (value, weight) pairs; None reads second
    pairs = [[(v, 1) for v in range(size)]] * len(stages)
    if orbits is not None:
        first, second = orbits
        pairs[:2] = [first, None]
        first_seed = stages[0][0]
    count = 0
    sols = []
    # weights[d]: the product of the weights of the values of seeds 0..d-1
    weights = [1] * (len(stages) + 1)
    # path holds an iterator over the untried pairs of each stage entered:
    # a loop, not a call per seed, so no plan passes the recursion limit
    path = []
    depth = 0
    while depth >= 0:
        if depth == len(path):
            if depth == len(stages):
                count += weights[depth]
                if limit is None or len(sols) < limit:
                    sols.append(tuple(values) if orbits is None else (tuple(values), weights[depth]))
                depth -= 1
                continue
            path.append(iter(pairs[depth] or second[values[first_seed]]))
        seed, steps = stages[depth]
        for v, k in path[depth]:
            values[seed] = v
            for target, source, over, table, check in steps:
                w = table[values[source]][values[over]]
                if not check:
                    values[target] = w
                elif values[target] != w:
                    break
            else:
                weights[depth + 1] = weights[depth] * k
                depth += 1
                break
        else:
            path.pop()
            depth -= 1
    return count, sols
