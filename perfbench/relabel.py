"""Seeded relabelling of diagrams, quandles and forms.

Each function returns an isomorphic copy of its input: arcs, crossings,
components and quandle elements are renamed or reordered, never
changed.  The invariant polynomial of a diagram under a form, whether a
form is valid, and how many forms a search finds are all defined up to
these renamings, so they are the same for every seed.  Only the order
in which the solvers visit arcs and elements changes, and with it the
work they do.
"""

import random

from qbeads.diagram import LinkDiagram


def rng_for(seed, *key):
    """A generator that depends only on the seed and the key."""
    return random.Random(":".join(str(k) for k in (seed,) + key))


def permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_diagram(diagram, rng):
    """Permute arc ids, crossing order, component order and the
    starting arc of every component."""
    arc = permutation(rng, diagram.arc_count)
    crossings = [
        (c.sign, arc[c.under_in], arc[c.over], arc[c.under_out])
        for c in diagram.crossings
    ]
    rng.shuffle(crossings)
    components = []
    for comp in diagram.components:
        start = rng.randrange(len(comp))
        components.append([arc[a] for a in comp[start:] + comp[:start]])
    rng.shuffle(components)
    meta = dict(diagram.meta, relabelled="arcs, crossings and components permuted; pd is the original's")
    return LinkDiagram(diagram.name, diagram.arc_count, crossings, components, meta).validate()


def relabel_table(table, perm):
    """Operation table of the quandle with element x renamed perm[x]."""
    m = len(table)
    out = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def relabel_blocks(blocks, perm):
    """Form blocks moved to match relabel_table(..., perm)."""
    m = len(blocks)
    out = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[perm[x]][perm[y]] = blocks[x][y]
    return out
