"""The quandle operation and its inverse as functions of two elements,
read off a Quandle's tables: x ▷ y and x ◁ y, the unique w with
w ▷ y = x, and op_signed, which reads one or the other by a crossing
sign.  Only the tests and their oracles call them; the package reads
the tables directly."""

from qbeads.errors import InputError


def op(quandle, x, y):
    return quandle.table[x][y]


def inv_op(quandle, x, y):
    return quandle.inv_table[x][y]


def op_signed(quandle, x, y, sign):
    """x ▷ y for sign +1, x ◁ y (the inverse translation) for sign -1."""
    if sign == 1:
        return quandle.table[x][y]
    if sign == -1:
        return quandle.inv_table[x][y]
    raise InputError(f"crossing sign must be +1 or -1, got {sign!r}")
