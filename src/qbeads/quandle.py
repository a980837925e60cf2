"""Finite quandles: validation, standard constructions, and file I/O.

A quandle is a finite set X with a binary operation x ▷ y such that
every x is idempotent (x ▷ x = x), every right translation x -> x ▷ y
is a bijection, and the operation is right self-distributive:
(x ▷ y) ▷ z = (x ▷ z) ▷ (y ▷ z).

Elements are 0-based ints everywhere in the API.  The text file format
is 1-based (see parse_quandle / format_quandle).
"""

import collections
import math
import operator
import os
from functools import cached_property

from .errors import AxiomError, InputError, read_text
from .field import PrimeField, search_orbits


def check_table_shape(table):
    """Raise InputError unless table is a square array of in-range ints."""
    m = len(table)
    if m == 0:
        raise InputError("quandle table is empty")
    for i, row in enumerate(table):
        if len(row) != m:
            raise InputError(f"row {i} has {len(row)} entries, expected {m}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < m:
                raise InputError(f"entry at ({i},{j}) is {v!r}, expected 0..{m - 1}")
    return m


def quandle_violations(table):
    """Exhaustively check the three quandle axioms on an operation table.

    Returns a list of human-readable violation strings (0-based element
    ids), empty when the table is a quandle.  Shape problems raise
    InputError instead, since a non-square table is malformed input
    rather than a failed axiom.
    """
    m = check_table_shape(table)
    violations = []
    for x in range(m):
        if table[x][x] != x:
            violations.append(f"idempotence fails: {x}>{x} = {table[x][x]}, expected {x}")
    for y in range(m):
        column = [table[x][y] for x in range(m)]
        if len(set(column)) != m:
            seen = {}
            for x, v in enumerate(column):
                if v in seen:
                    violations.append(
                        f"right translation by {y} is not injective: "
                        f"{seen[v]}>{y} = {x}>{y} = {v}"
                    )
                    break
                seen[v] = x
    for x in range(m):
        for y in range(m):
            for z in range(m):
                left = table[table[x][y]][z]
                right = table[table[x][z]][table[y][z]]
                if left != right:
                    violations.append(
                        f"self-distributivity fails at ({x},{y},{z}): "
                        f"({x}>{y})>{z} = {left} but ({x}>{z})>({y}>{z}) = {right}"
                    )
    return violations


class Quandle:
    """A finite quandle given by its operation table.

    Construct through from_table (validating) or the named constructors
    below.  table[x][y] is x ▷ y; inv_table[x][y] is x ◁ y, the unique
    w with w ▷ y = x.
    """

    def __init__(self, table, name=""):
        m = check_table_shape(table)
        self.table = tuple(tuple(row) for row in table)
        self.order = m
        self.name = name
        # inverse translation table: inv_table[x][y] = x ◁ y
        inv = [[None] * m for _ in range(m)]
        for w in range(m):
            for y in range(m):
                inv[self.table[w][y]][y] = w
        if any(v is None for row in inv for v in row):
            raise InputError("operation table has non-bijective translations; validate first")
        self.inv_table = tuple(tuple(row) for row in inv)

    @classmethod
    def from_table(cls, table, name=""):
        violations = quandle_violations(table)
        if violations:
            raise AxiomError(f"not a quandle ({len(violations)} violations)", violations)
        return cls(table, name=name)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Quandle{label} of order {self.order}>"

    def __eq__(self, other):
        return isinstance(other, Quandle) and other.table == self.table

    def __hash__(self):
        return hash(self.table)

    @property
    def elements(self):
        return range(self.order)

    def orbits(self):
        """Each element's orbit under Inn(X), labelled by its least element.

        The right translations generate Inn(X), and row x of the table
        lists the images of x under them.  The orbits are the quandle's
        connected components.  Found on the first call and kept.
        """
        return self._orbit_labels

    @cached_property
    def _orbit_labels(self):
        orbits = search_orbits(self.elements, self.table.__getitem__)
        label = {x: orbit[0] for orbit in orbits for x in orbit}
        return tuple(map(label.__getitem__, self.elements))

    @cached_property
    def inner_orbits(self):
        """weighted_orbits of Inn(X) on the elements from its generators,
        the distinct right translations x -> x ▷ y, so at most m^3 steps
        like quandle_violations; built on first use and kept."""
        return weighted_orbits(list(set(zip(*self.table))), self.order)


def weighted_orbits(generators, size):
    """(first, second) for the group G that some permutations of
    range(size) generate, without listing G.

    first lists (v, |Gv|) for the least element v of each orbit of G,
    in ascending order; second[v] lists (w, |Stab_G(v) w|) the same way
    for the stabiliser of each such v.  A sum over range(size) x
    range(size) of a G-invariant function of (v, w) is the sum over
    these pairs of their weights times its value, which is how a count
    runs its first two seeds up to G.

    first comes from the orbits of the generators on range(size), and
    second[v] from their orbits on the pairs (u, x) with u in Gv: the
    pair orbit through (v, w) meets row v in {v} x Stab_G(v) w.  The
    pairs are labelled one row of size pairs at a time, label w standing
    for (v, w) (see _stabiliser_orbits), so each v costs |Gv| passes
    over a row per generator, not size^2 pair steps per generator.
    Every trivial stabiliser shares one list, so a small G keeps
    O(size) pairs, not O(size^2).
    """
    every = [(w, 1) for w in range(size)]
    # on one point every group is trivial (and an itemgetter of one
    # index would return an item, not a tuple)
    if not generators or size < 2:
        return every, dict.fromkeys(range(size), every)
    orbits = search_orbits(range(size), lambda x: [g[x] for g in generators])
    first = [(orbit[0], len(orbit)) for orbit in orbits]
    # each generator g with the map that carries a row through it: pair
    # (u, x) goes to (g u, g x), so row g u is row u read at g^-1
    moves = [
        (g, operator.itemgetter(*sorted(range(size), key=g.__getitem__))) for g in generators
    ]
    second = {}
    for v, _ in first:
        found = _stabiliser_orbits(v, moves, size)
        second[v] = every if len(found) == size else found
    return first, second


def _stabiliser_orbits(v, moves, size):
    """[(w, |Stab_G(v) w|)] for the least w of each orbit of Stab_G(v),
    G generated by the g of moves, each paired with the map that
    carries a row through it (see weighted_orbits).

    Row u lists a label for each pair (u, x).  Row v is range(size),
    and a row first reached from row u by a generator is row u carried
    through it, in one pass.  Where a row reached again disagrees with
    the row carried to it, the labels the two pair up lie in one orbit
    and are merged.  Every generator edge between the rows of Gv is
    then either carried or merged, so the merged labels are the orbits
    of Stab_G(v).
    """
    parent = list(range(size))  # union-find over the labels; a root is its class's least

    def find(w):
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    # label[w] is the root of w's class and merges counts the rounds of
    # merging so far; a row is kept with the count it was labelled at
    # and relabelled only when read after a later round
    label, merges = list(range(size)), 0
    rows = {v: (tuple(label), 0)}
    reached = [v]

    def read(u):
        row, at = rows[u]
        if at != merges:
            row = tuple(map(label.__getitem__, row))
            rows[u] = row, merges
        return row

    for u in reached:
        for g, carry in moves:
            carried = carry(read(u))
            if g[u] not in rows:
                rows[g[u]] = carried, merges
                reached.append(g[u])
                continue
            known = read(g[u])
            if known != carried:
                for a, b in set(zip(known, carried)):
                    a, b = find(a), find(b)
                    parent[max(a, b)] = min(a, b)
                label, merges = list(map(find, range(size))), merges + 1
    sizes = collections.Counter(label)
    return [(w, sizes[w]) for w in range(size) if label[w] == w]


# -- standard constructions -------------------------------------------
#
# Each construction is a quandle by theorem once its inputs are checked,
# so it builds Quandle(table) without from_table's m^3 axiom sweep;
# tests/test_quandle.py runs that sweep on each over small inputs.


def trivial_quandle(m, name=None):
    """x ▷ y = x on m elements."""
    if m < 1:
        raise InputError(f"order must be positive, got {m}")
    table = [[x] * m for x in range(m)]
    return Quandle(table, name=name or f"trivial{m}")


def group_table_violations(table):
    """Check associativity, identity, and inverses of a 0-based Cayley table."""
    m = check_table_shape(table)
    problems = []
    identity = None
    for e in range(m):
        if all(table[e][x] == x and table[x][e] == x for x in range(m)):
            identity = e
            break
    if identity is None:
        problems.append("no two-sided identity element")
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    problems.append(f"associativity fails at ({x},{y},{z})")
                    return problems
    if identity is not None:
        for x in range(m):
            if not any(
                table[x][y] == identity and table[y][x] == identity for y in range(m)
            ):
                problems.append(f"element {x} has no inverse")
    return problems


def _group_inverses(table):
    """The inverse of each element of a Cayley table; InputError
    unless the table is a group's."""
    problems = group_table_violations(table)
    if problems:
        raise InputError("not a group table: " + "; ".join(problems))
    # e e = e forces e = 1 in a group, so the identity is its only idempotent
    identity = next(e for e, row in enumerate(table) if row[e] == e)
    return [row.index(identity) for row in table]


def conjugation_quandle(group_table, name=None):
    """x ▷ y = y^-1 x y on the elements of a finite group."""
    inv = _group_inverses(group_table)
    m = len(group_table)
    table = [
        [group_table[group_table[inv[y]][x]][y] for y in range(m)] for x in range(m)
    ]
    return Quandle(table, name=name or f"conj{m}")


def core_quandle(group_table, name=None):
    """x ▷ y = y x^-1 y on the elements of a finite group."""
    inv = _group_inverses(group_table)
    m = len(group_table)
    table = [
        [group_table[group_table[y][inv[x]]][y] for y in range(m)] for x in range(m)
    ]
    return Quandle(table, name=name or f"core{m}")


def alexander_quandle(n, t, name=None):
    """x ▷ y = t*x + (1-t)*y on Z_n, for t a unit mod n.

    alexander_quandle(n, n-1) is the dihedral quandle on n elements.
    """
    if n < 1:
        raise InputError(f"modulus must be positive, got {n}")
    t = t % n
    if math.gcd(t, n) != 1:
        raise InputError(f"t = {t} is not a unit mod {n}")
    table = [[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)]
    return Quandle(table, name=name or f"alexander({n},{t})")


def symplectic_quandle(p, n, S, name=None):
    """x ▷ y = x + (x^T S y) y on the vectors of F_p^n.

    S must be alternating (zero diagonal, S^T = -S) and nondegenerate:
    no nonzero vector's row of its bilinear table is all zero.  The
    operation is VectorTables.step_table of that table with sign 1.
    Elements are indexed by position in PrimeField(p).all_vectors(n).
    """
    field = PrimeField(p)
    if n < 2 or n % 2 != 0:
        raise InputError(f"symplectic dimension must be even and >= 2, got {n}")
    S = field.check_matrix(S, n)
    if not field.is_alternating(S):
        raise InputError("S is not alternating (need zero diagonal and S^T = -S)")
    tables = field.vector_tables(n)
    bilinear = tables.bilinear_table(S)
    # index 0 is the zero vector, whose row is always zero
    if not all(map(any, bilinear[1:])):
        raise InputError("S is degenerate")
    return Quandle(tables.step_table(bilinear, 1), name=name or f"symplectic({p},{n})")


# -- file format ------------------------------------------------------


def parse_quandle(text, name=""):
    """Parse the quandle file format.

    Line 1: ``quandle m``.  Then m lines of m whitespace-separated
    1-based entries.  Blank lines and lines starting with ``#`` are
    ignored.  Raises InputError (with line numbers) on malformed input
    and AxiomError if the table is not a quandle.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise InputError("empty quandle file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "quandle":
        raise InputError(f"line {lineno}: expected header 'quandle m', got {header!r}")
    try:
        m = int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: order {parts[1]!r} is not an integer")
    if m < 1:
        raise InputError(f"line {lineno}: order must be positive, got {m}")
    body = lines[1:]
    if len(body) != m:
        raise InputError(f"expected {m} table rows, found {len(body)}")
    table = []
    for lineno, row_text in body:
        entries = row_text.split()
        if len(entries) != m:
            raise InputError(
                f"line {lineno}: expected {m} entries, found {len(entries)}"
            )
        row = []
        for e in entries:
            try:
                v = int(e)
            except ValueError:
                raise InputError(f"line {lineno}: entry {e!r} is not an integer")
            if not 1 <= v <= m:
                raise InputError(f"line {lineno}: entry {v} out of range 1..{m}")
            row.append(v - 1)
        table.append(row)
    return Quandle.from_table(table, name=name)


def format_quandle(quandle):
    """Render a Quandle in the 1-based text file format."""
    lines = [f"quandle {quandle.order}"]
    for row in quandle.table:
        lines.append(" ".join(str(v + 1) for v in row))
    return "\n".join(lines) + "\n"


def load_quandle(path, name=None):
    text = read_text(path)
    inferred = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    return parse_quandle(text, name=inferred)
