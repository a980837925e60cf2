"""Brute-force reference for the form axioms, used only by the tests.

qbeads.forms.form_violations decides axioms (ii) and (iii) on unit
vectors alone, relying on bilinearity.  This module keeps the direct
sweep over every element triple and every vector triple (a, b, c),
m^3 * p^3n cases per axiom, so tests can compare the fast checker's
verdict and witnesses against it.
"""

import functools

from qbeads.errors import InputError


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
