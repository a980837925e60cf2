"""The bead quandle X x F_p^n: a reference for forms and bead counts.

    (x, a) > (y, b) = (x > y, a + [a, b]_{x,y} b)

This operation is a quandle exactly when the form family satisfies
axioms (i) to (iii), and the bead colorings over an X-coloring f are
the colorings by X x F_p^n whose first coordinates are f.  Vectors and
the pairing are computed here from the quandle table and the blocks
alone, with no code from qbeads' field, form or bead-count layers.
"""

import itertools


def vectors(p, n):
    """F_p^n in lexicographic order."""
    return list(itertools.product(range(p), repeat=n))


def pairing(a, B, b, p):
    """[a, b] = a^T B b mod p."""
    n = len(a)
    return sum(a[i] * B[i][j] * b[j] for i in range(n) for j in range(n)) % p


def bead_table(quandle_table, blocks, p, n):
    """The operation table of X x F_p^n, where (x, a) is the element
    x * p^n + (position of a in vectors(p, n))."""
    vecs = vectors(p, n)
    index = {v: i for i, v in enumerate(vecs)}
    table = []
    for x, row in enumerate(quandle_table):
        for a in vecs:
            out = []
            for y, xy in enumerate(row):
                B = blocks[x][y]
                for b in vecs:
                    s = pairing(a, B, b, p)
                    out.append(xy * len(vecs) + index[tuple((ai + s * bi) % p for ai, bi in zip(a, b))])
            table.append(out)
    return table


def fibre_counts(colorings, size):
    """{X-coloring: number of colorings by X x F_p^n over it}, where
    size = p^n and colorings are by element numbers of bead_table."""
    counts = {}
    for g in colorings:
        f = tuple(e // size for e in g)
        counts[f] = counts.get(f, 0) + 1
    return counts
