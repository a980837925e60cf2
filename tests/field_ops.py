"""Vector sums, scalar multiples and u^T B v over a PrimeField, computed
from the coordinates.  Only the tests and their oracles call them, as
references independent of the index tables (field.VectorTables) that
the package reads."""

from qbeads.errors import InputError


def vec_add(field, u, v):
    if len(u) != len(v):
        raise InputError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple((a + b) % field.p for a, b in zip(u, v))


def scalar_mul(field, s, v):
    return tuple((s * a) % field.p for a in v)


def bilinear_eval(field, B, u, v):
    """u^T B v mod p for row vectors u, v."""
    total = 0
    for i, ui in enumerate(u):
        if ui:
            row = B[i]
            total += ui * sum(row[j] * vj for j, vj in enumerate(v))
    return total % field.p
