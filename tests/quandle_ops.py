"""The quandle operation and its inverse as functions of two elements,
read off a Quandle's tables: x ▷ y and x ◁ y, the unique w with
w ▷ y = x.  Only the tests and their oracles call them; the package
reads the tables directly, or op_signed by a crossing sign."""


def op(quandle, x, y):
    return quandle.table[x][y]


def inv_op(quandle, x, y):
    return quandle.inv_table[x][y]
