"""Reference checkers for the form axioms, used only by the tests.

qbeads.forms.form_violations decides axioms (ii) and (iii) on unit
vectors alone, relying on bilinearity, and decides each instance once
per distinct tuple of the four blocks it reads.  This module keeps the
two checks that stand behind it: the direct sweep over every element
triple and every vector triple (a, b, c), m^3 * p^3n cases per axiom,
and the unit-vector check run at every element triple, with no
memo.  Tests compare the fast checker's verdict and witnesses against
both.
"""

import functools

from qbeads.errors import InputError
from qbeads.forms import axiom_failures


def brute_force_violations(quandle, blocks, field, n):
    """Every failing axiom instance, one line per (x, y, z, a, b, c).

    The lines use form_violations' witness format and order; nothing is
    capped or summarised.
    """
    m = quandle.order
    if len(blocks) != m or any(len(row) != m for row in blocks):
        raise InputError(f"expected {m}x{m} blocks, one per pair of quandle elements")
    blocks = tuple(tuple(field.check_matrix(B, n) for B in row) for row in blocks)
    vectors = field.all_vectors(n)
    # memoised for speed only: the sweep evaluates each (B, u, v) many times
    ev = functools.lru_cache(maxsize=None)(field.bilinear_eval)
    op = quandle.op
    violations = []

    for x in range(m):
        B = blocks[x][x]
        for a in vectors:
            if ev(B, a, a) != 0:
                violations.append(f"axiom (i) fails at x={x}, a={a}: [a,a] = {ev(B, a, a)}")

    for x in range(m):
        for y in range(m):
            for z in range(m):
                Bxy = blocks[x][y]
                Bxz = blocks[x][z]
                Byz = blocks[y][z]
                Bxz_yz = blocks[op(x, z)][op(y, z)]
                for a in vectors:
                    for b in vectors:
                        for c in vectors:
                            left = ev(Bxy, a, b)
                            a2 = field.vec_add(a, field.scalar_mul(ev(Bxz, a, c), c))
                            b2 = field.vec_add(b, field.scalar_mul(ev(Byz, b, c), c))
                            right = ev(Bxz_yz, a2, b2)
                            if left != right:
                                violations.append(
                                    f"axiom (ii) fails at (x,y,z)=({x},{y},{z}), "
                                    f"a={a}, b={b}, c={c}: {left} != {right}"
                                )

    for x in range(m):
        for y in range(m):
            xy = op(x, y)
            for z in range(m):
                Bxy = blocks[x][y]
                Bxyz = blocks[xy][z]
                Bxz = blocks[x][z]
                Byz = blocks[y][z]
                for a in vectors:
                    for b in vectors:
                        ab = ev(Bxy, a, b)
                        for c in vectors:
                            left = (ev(Bxyz, a, c) + ab * ev(Bxyz, b, c)) % field.p
                            right = (ev(Bxz, a, c) + ab * ev(Byz, b, c)) % field.p
                            if left != right:
                                violations.append(
                                    f"axiom (iii) fails at (x,y,z)=({x},{y},{z}), "
                                    f"a={a}, b={b}, c={c}: {left} != {right}"
                                )
    return violations


def per_instance_violations(quandle, blocks, field, n, cap=20):
    """form_violations without its memo: axiom_failures at every
    (kind, x, y, z), in the same order, with the same cap and summary."""
    m = quandle.order
    if len(blocks) != m or any(len(row) != m for row in blocks):
        raise InputError(f"expected {m}x{m} blocks, one per pair of quandle elements")
    blocks = tuple(tuple(field.check_matrix(B, n) for B in row) for row in blocks)
    vector_tables = field.vector_tables(n)
    vectors = vector_tables.vectors
    ev = field.bilinear_eval

    violations = []
    total = 0

    def record(msg):
        nonlocal total
        total += 1
        if len(violations) < cap:
            violations.append(msg)

    for x in range(m):
        B = blocks[x][x]
        if not field.is_alternating(B):
            for a in vectors:
                if ev(B, a, a) != 0:
                    record(f"axiom (i) fails at x={x}, a={a}: [a,a] = {ev(B, a, a)}")

    block_tables = [[vector_tables.bilinear_table(B) for B in row] for row in blocks]
    for kind in ("ii", "iii"):
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    if kind == "ii":
                        out = block_tables[quandle.op(x, z)][quandle.op(y, z)]
                    else:
                        out = block_tables[quandle.op(x, y)][z]
                    for a, b, c, left, right in axiom_failures(
                        kind, block_tables[x][y], block_tables[x][z], block_tables[y][z],
                        out, vector_tables,
                    ):
                        record(
                            f"axiom ({kind}) fails at (x,y,z)=({x},{y},{z}), "
                            f"a={vectors[a]}, b={vectors[b]}, c={vectors[c]}: "
                            f"{left} != {right}"
                        )

    if total > len(violations):
        violations.append(f"... and {total - len(violations)} more violations")
    return violations
