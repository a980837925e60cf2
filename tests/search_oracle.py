"""Pair-slot reference for the form search, used only by the tests.

qbeads.search assigns one matrix per orbit-pair slot, relying on the
lemma that every valid family is constant on orbit blocks.  This module
keeps the direct depth-first search over all m*m pairs, checking every
axiom (ii)/(iii) instance at every element triple, so tests can compare
the orbit search's forms and their order against it.

Pairs are assigned diagonal first, (0,0), (1,1), ..., then off-diagonal
row-major; each slot runs through its candidate matrices in
all_matrices order, so the forms come out in lexicographic order
of that pair tuple.  An instance is checked once all the pairs it reads
are assigned.
"""

import itertools

from qbeads.field import PrimeField, VectorTables
from qbeads.forms import axiom_failures


def all_matrices(field, n):
    """Iterate over all p^(n*n) matrices, rows filled lexicographically."""
    for flat in itertools.product(range(field.p), repeat=n * n):
        yield tuple(flat[i * n : (i + 1) * n] for i in range(n))


def pair_order(m):
    pairs = [(x, x) for x in range(m)]
    pairs += [(x, y) for x in range(m) for y in range(m) if x != y]
    return pairs


def reference_search(quandle, p, n, mode="all"):
    """Every valid form's blocks, in the pair search's emission order."""
    field = PrimeField(p)
    vector_tables = VectorTables(field, n)
    mats = list(all_matrices(field, n))
    tables = [vector_tables.bilinear_table(M) for M in mats]
    every = list(range(len(mats)))
    alternating = [i for i, M in enumerate(mats) if field.is_alternating(M)]

    m, op = quandle.order, quandle.op
    pairs = pair_order(m)
    slot = {pair: k for k, pair in enumerate(pairs)}
    schedule = [[] for _ in pairs]
    for x in range(m):
        for y in range(m):
            for z in range(m):
                reads_ii = [(x, y), (x, z), (y, z), (op(x, z), op(y, z))]
                reads_iii = [(x, y), (x, z), (y, z), (op(x, y), z)]
                schedule[max(slot[r] for r in reads_ii)].append(("ii", x, y, z))
                schedule[max(slot[r] for r in reads_iii)].append(("iii", x, y, z))

    def candidates(k):
        x, y = pairs[k]
        if x == y:
            if mode == "constant-diagonal" and k > 0:
                return [assigned[0]]
            return alternating
        return alternating if mode == "alternating-only" else every

    def table(u, v):
        return tables[assigned[slot[(u, v)]]]

    def holds(kind, x, y, z):
        out = table(op(x, z), op(y, z)) if kind == "ii" else table(op(x, y), z)
        failures = axiom_failures(kind, table(x, y), table(x, z), table(y, z), out, vector_tables)
        return next(failures, None) is None

    assigned = [None] * len(pairs)
    found = []

    def walk(k):
        if k == len(pairs):
            grid = [[None] * m for _ in range(m)]
            for (x, y), mat_id in zip(pairs, assigned):
                grid[x][y] = mats[mat_id]
            found.append(tuple(tuple(row) for row in grid))
            return
        for mat_id in candidates(k):
            assigned[k] = mat_id
            if all(holds(*instance) for instance in schedule[k]):
                walk(k + 1)
        assigned[k] = None

    walk(0)
    return found
