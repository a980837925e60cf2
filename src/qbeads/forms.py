"""Families of bilinear forms indexed by pairs of quandle elements.

A form assigns to every pair (x, y) of quandle elements an n-by-n
matrix B[x][y] over F_p, evaluated as [u, v]_{x,y} = u^T B[x][y] v.
The family is compatible with the quandle when three axioms hold:

  (i)   [a, a]_{x,x} = 0
  (ii)  [a, b]_{x,y} = [a + [a,c]_{x,z} c,  b + [b,c]_{y,z} c]_{x>z, y>z}
  (iii) [a, c]_{x>y,z} + [a,b]_{x,y} [b,c]_{x>y,z}
            = [a, c]_{x,z} + [a,b]_{x,y} [b,c]_{y,z}

for all x, y, z in X and a, b, c in F_p^n.  Axiom (i) is equivalent to
every diagonal block being alternating (zero diagonal, B^T = -B); the
validator checks that first.

For fixed c, a -> a + [a,c]_{x,z} c is linear, so both sides of (ii)
are bilinear in (a, b); for fixed b, both sides of (iii) are bilinear
in (a, c).  A bilinear identity holds for all vectors exactly when it
holds on pairs of unit vectors, so axiom_failures checks (ii) with a
and b running over unit vectors and c over all vectors, and (iii) with
a and c over unit vectors and b over all vectors: p^n * n^2 cases per
axiom instance instead of p^3n.  Every failure it reports is also a
failure of the full sweep over all vector triples.  An instance reads
only four blocks, so form_violations runs this unit-vector check once
per distinct tuple of those four blocks and per axiom, not at all m^3
element triples: by the orbit lemma below, at most r^3 tuples per
axiom on a valid family with r orbits, and one on a connected quandle
or for a constant family.

Orbit lemma: a valid family is constant on the blocks (orbit of x,
orbit of y), where the orbits are those of Inn(X), the quandle's
connected components.  Proof: c = 0 in (ii) gives B[x][y] =
B[x>z][y>z], and b = 0 in (iii) gives B[x>y][z] = B[x][z]; applying
the second to the first index of the first, B[x][y] = B[x][y>z].  So
both indices may be moved along their orbits, and a connected quandle
admits only constant families.  The search assigns one matrix per
orbit pair on this account.

For a knot K every arc of an X-coloring lies in one orbit O, and the
bead step at each crossing is x > y = x + (x^T M_O y) y with M_O =
B[O][O].  So the enhanced invariant is sum_O N_O u^k(K, M_O), where
N_O counts the X-colorings of K in O and k(K, M_O) counts the
colorings of K by F_p^n under that operation: the symplectic quandle
of M_O when M_O is nondegenerate.
"""

import itertools
import os
from functools import cached_property

from .errors import AxiomError, InputError, read_text
from .field import PrimeField
from .quandle import Preimages, weighted_orbits

# the most partial maps an isometry search accepts; past it
# BilinearForm.isometries returns the generators found so far
MAX_ISOMETRIES = 4096


class BilinearForm:
    """A validated family of n-by-n matrices over F_p indexed by X x X.

    Instances should be produced by validate_form, the named helpers
    (zero_form, constant_form), or parse_form, all of which run the
    axiom checks.

    A form keeps the tables every bead count over it reads: its field's
    VectorTables, which validate_form also checks the axioms with, and
    the bilinear tables, step tables (step_pairs) and seed orbits,
    built on first use.
    """

    def __init__(self, quandle, field, n, blocks, name=""):
        # blocks is taken as checked: an m-by-m tuple grid of n-by-n
        # tuple matrices over F_p, as form_violations checks them
        self.quandle = quandle
        self.field = field
        self.n = n
        self.blocks = blocks
        self.name = name
        self._seed_orbits = {}  # frozenset of block ids -> seed_orbits
        self._generator_orbits = {}  # tuple of isometry generators -> seed_orbits

    @property
    def vector_tables(self):
        """The VectorTables of F_p^n that the step tables index."""
        return self.field.vector_tables(self.n)

    @cached_property
    def block_ids(self):
        """block_ids[x][y] numbers the distinct matrices in row-major order."""
        ids = {}
        return tuple(tuple(ids.setdefault(B, len(ids)) for B in row) for row in self.blocks)

    @cached_property
    def step_pairs(self):
        """step_pairs[block id, sign]: the (forward, inverse, preimages)
        triple of step tables, built on first read (see _StepPairs)."""
        return _StepPairs(self.vector_tables, self.bilinear_tables)

    @cached_property
    def bilinear_tables(self):
        """bilinear_tables[i] is the bilinear table of the block with id
        i (see VectorTables.bilinear_table); read-only."""
        distinct = dict.fromkeys(B for row in self.blocks for B in row)
        return tuple(map(self.vector_tables.bilinear_table, distinct))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<BilinearForm{label}: |X|={self.quandle.order}, "
            f"n={self.n}, p={self.field.p}>"
        )

    def __eq__(self, other):
        return (
            isinstance(other, BilinearForm)
            and other.blocks == self.blocks
            and other.field == self.field
            and other.quandle == self.quandle
        )

    def eval_table(self):
        """Nested lookup table t[x][y][i][j] over vector indices.

        Vector indices follow field.all_vectors(n) order; the table
        turns every later bilinear evaluation into one list lookup.
        Rows are shared (see VectorTables.bilinear_table), so the table
        is read-only.
        """
        return [[self.vector_tables.bilinear_table(B) for B in row] for row in self.blocks]

    def step_table(self, x, y, sign):
        """t[in][over]: the out bead's index at a crossing of this sign
        whose under-in and over arcs are colored x and y; read through
        step_pairs, so built once per distinct block and sign, at most
        2m^2 per form.  Read-only, like eval_table."""
        return self.step_pairs[self.block_ids[x][y], sign][0]

    def isometries(self, ids):
        """Generators of the isometry group H of every block whose id
        is in ids, or of a subgroup past MAX_ISOMETRIES partial maps,
        which seed_orbits weights just as exactly; as permutations of
        vector indices (see VectorTables.isometries)."""
        tables = [self.bilinear_tables[i] for i in ids]
        return self.vector_tables.isometries(tables, MAX_ISOMETRIES)

    def seed_orbits(self, ids):
        """(first, second): the weighted values of the first two seeds
        of a bead count over a coloring that reads the blocks in ids.

        first lists (v, |Hv|) for the least vector index v of each
        H-orbit, H the group isometries(ids) generates; second[v] lists
        (w, |Stab_H(v) w|) the same way for the stabiliser of v
        (quandle.weighted_orbits).  Built on first use and kept, one
        per distinct ids, which are checked on that first use.

        A zero block constrains no map, so ids share the orbits of their
        nonzero ids: a catalog batch reads {S}, {Z} and {S, Z} and runs
        one isometry search, on {S}.  Nonzero ids whose isometries have
        the same generators share their orbits too, so weighted_orbits
        runs once per distinct generator list of the form.
        """
        orbits = self._seed_orbits.get(ids)
        if orbits is None:
            unknown = ids - frozenset(range(len(self.bilinear_tables)))
            if unknown:
                raise InputError(
                    f"block ids {sorted(map(repr, unknown))} are not among this "
                    f"form's {len(self.bilinear_tables)} blocks"
                )
            nonzero = ids - self._zero_ids
            orbits = self._seed_orbits.get(nonzero)
            if orbits is None:
                generators = self.isometries(nonzero)
                key = tuple(map(tuple, generators))
                if key not in self._generator_orbits:
                    size = len(self.vector_tables.vectors)
                    self._generator_orbits[key] = weighted_orbits(generators, size)
                orbits = self._seed_orbits[nonzero] = self._generator_orbits[key]
            self._seed_orbits[ids] = orbits
        return orbits

    @cached_property
    def _zero_ids(self):
        """The ids of the blocks that are zero matrices."""
        distinct = dict.fromkeys(B for row in self.blocks for B in row)
        return frozenset(i for i, B in enumerate(distinct) if not any(map(any, B)))


class _StepPairs(dict):
    """step_pairs[block id, sign] is the (forward, inverse, preimages)
    triple of step tables of a crossing of that sign whose under-in and
    over arcs read that block: the step table of that sign, the one of
    the opposite sign, which undoes it (see the coloring module), and
    the forward table's quandle.Preimages, whose rows a plan kernel's
    keyed loops build on first read.  Both tables are built from the
    block's bilinear table (VectorTables.step_table) on the first read
    of either sign and kept, so a bead count fetches each crossing's
    triple with one subscript.  It holds the form's tables,
    not the form, so a form is freed as soon as its last reference
    goes."""

    def __init__(self, vector_tables, bilinear_tables):
        super().__init__()
        self.vector_tables = vector_tables
        self.bilinear_tables = bilinear_tables

    def __missing__(self, key):
        block_id, sign = key
        table = self.bilinear_tables[block_id]
        forward, inverse = (self.vector_tables.step_table(table, s) for s in (sign, -sign))
        self[block_id, -sign] = inverse, forward, Preimages(inverse)
        pair = self[key] = forward, inverse, Preimages(forward)
        return pair


AXIOM_KINDS = ("ii", "iii")


def axiom_reads(quandle, elements, grid):
    """What each axiom (ii) and (iii) instance with x, y, z in elements
    reads, listed in itertools.product(AXIOM_KINDS, elements, elements,
    elements) order.

    An instance's entry is its kind, then grid's entries at the four
    element pairs whose blocks it reads, in the order axiom_failures
    takes their tables: (x, y), (x, z), (y, z) and the out pair,
    (x>z, y>z) for (ii) or (x>y, z) for (iii).  With grid the block
    ids, the entry is the whole of what decides the instance.
    """
    op = quandle.table
    triples = [(x, y, z) for x in elements for y in elements for z in elements]
    return [
        ("ii", grid[x][y], grid[x][z], grid[y][z], grid[op[x][z]][op[y][z]])
        for x, y, z in triples
    ] + [
        ("iii", grid[x][y], grid[x][z], grid[y][z], grid[op[x][y]][z])
        for x, y, z in triples
    ]


def axiom_failures(kind, Txy, Txz, Tyz, Tout, vector_tables):
    """Yield each failure of an axiom instance on unit vectors.

    kind is "ii" or "iii", and Txy, Txz, Tyz, Tout are the bilinear
    tables of the four blocks the instance reads (see axiom_reads),
    indexing the vectors of vector_tables.  A failure is (a, b, c,
    left, right) with a, b, c vector indices; the instance holds for
    all vectors exactly when nothing is yielded (see the module
    docstring).  Callers that only need the verdict stop at the first
    failure.
    """
    units = vector_tables.units
    nv = len(vector_tables.vectors)
    if kind == "ii":
        vadd, smul = vector_tables.vadd, vector_tables.smul
        for a in units:
            row_xy, row_xz, add_a = Txy[a], Txz[a], vadd[a]
            for b in units:
                left = row_xy[b]
                row_yz, add_b = Tyz[b], vadd[b]
                for c in range(nv):
                    right = Tout[add_a[smul[row_xz[c]][c]]][add_b[smul[row_yz[c]][c]]]
                    if left != right:
                        yield a, b, c, left, right
        return
    p = vector_tables.p
    for a in units:
        row_xy, out_a, xz_a = Txy[a], Tout[a], Txz[a]
        for b in range(nv):
            ab = row_xy[b]
            out_b, yz_b = Tout[b], Tyz[b]
            for c in units:
                left = (out_a[c] + ab * out_b[c]) % p
                right = (xz_a[c] + ab * yz_b[c]) % p
                if left != right:
                    yield a, b, c, left, right


def form_violations(quandle, blocks, field, n, cap=20, memo=None):
    """Check axioms (i) to (iii) exactly; return violation strings.

    Axiom (i) is checked on every vector, (ii) and (iii) on the unit
    vectors that decide them (see the module docstring), so every
    string is one a sweep over all vector triples would also report.
    An instance (kind, x, y, z) reads four blocks, B[x][y], B[x][z],
    B[y][z] and B[x>z][y>z] for (ii) or B[x>y][z] for (iii), so it is
    decided once per distinct tuple of those blocks and its failures
    are replayed at every instance with the same tuple: at most r^3
    decisions per axiom on a valid family with r orbits, one on a
    connected quandle.  Stops collecting detail after cap entries
    (default 20) and appends a single summary line with the total
    count of failures found instead.  Element ids are 0-based,
    vectors are written out explicitly.

    memo, when given, is a dict that calls with the same field, n and
    cap share, from (kind, the four matrices) to that tuple's kept
    failures and their total.  A tuple the call has not decided itself
    is looked up there before it is decided, so a list of forms
    (search.verify_search_output) decides each tuple once for all of
    them.  A failure depends only on the four matrices, so the strings
    are those of a call without memo.
    """
    m = quandle.order
    if len(blocks) != m or any(len(row) != m for row in blocks):
        raise InputError(f"expected {m}x{m} blocks, one per pair of quandle elements")
    blocks = tuple(tuple(field.check_matrix(B, n) for B in row) for row in blocks)
    vector_tables = field.vector_tables(n)
    vectors = vector_tables.vectors
    ids = {}
    block_ids = [[ids.setdefault(B, len(ids)) for B in row] for row in blocks]
    matrices = list(ids)  # block id -> matrix
    tables = {}  # block id -> bilinear table, built on first read

    def table(i):
        if i not in tables:
            tables[i] = vector_tables.bilinear_table(matrices[i])
        return tables[i]

    violations = []
    total = 0

    for x in range(m):
        if not field.is_alternating(blocks[x][x]):
            diagonal = table(block_ids[x][x])
            for i, a in enumerate(vectors):
                if diagonal[i][i] != 0:
                    total += 1
                    if len(violations) < cap:
                        violations.append(
                            f"axiom (i) fails at x={x}, a={a}: [a,a] = {diagonal[i][i]}"
                        )

    def decide(key):
        kept, count = [], 0
        for failure in axiom_failures(key[0], *map(table, key[1:]), vector_tables):
            count += 1
            if count <= cap:
                kept.append(failure)
        return kept, count

    decided = {}  # (kind, four block ids) -> (first cap failures, their total)
    instances = itertools.product(AXIOM_KINDS, range(m), range(m), range(m))
    for (kind, x, y, z), key in zip(instances, axiom_reads(quandle, range(m), block_ids)):
        if key not in decided:
            if memo is None:
                decided[key] = decide(key)
            else:
                shared = (kind, *(matrices[i] for i in key[1:]))
                if shared not in memo:
                    memo[shared] = decide(key)
                decided[key] = memo[shared]
        kept, count = decided[key]
        total += count
        for a, b, c, left, right in kept:
            if len(violations) >= cap:
                break
            violations.append(
                f"axiom ({kind}) fails at (x,y,z)=({x},{y},{z}), "
                f"a={vectors[a]}, b={vectors[b]}, c={vectors[c]}: "
                f"{left} != {right}"
            )

    if total > len(violations):
        violations.append(f"... and {total - len(violations)} more violations")
    return violations


def validate_form(quandle, blocks, p, n, name=""):
    """Validate blocks against the quandle; return a BilinearForm.

    Raises AxiomError carrying the violation report when any axiom
    instance fails, InputError on shape or range problems.
    """
    field = PrimeField(p)
    violations = form_violations(quandle, blocks, field, n)
    if violations:
        raise AxiomError(f"form axioms fail ({len(violations)} reported)", violations)
    # form_violations has checked every block; only the containers change
    blocks = tuple(tuple(tuple(map(tuple, B)) for B in row) for row in blocks)
    return BilinearForm(quandle, field, n, blocks, name=name)


def zero_form(quandle, p, n, name="zero"):
    """The everywhere-zero family, compatible with any quandle."""
    field = PrimeField(p)
    Z = field.zero_matrix(n)
    blocks = [[Z] * quandle.order for _ in range(quandle.order)]
    return validate_form(quandle, blocks, p, n, name=name)


def constant_form(quandle, p, n, B, name="constant"):
    """The family with the same matrix B at every pair (x, y)."""
    blocks = [[B] * quandle.order for _ in range(quandle.order)]
    return validate_form(quandle, blocks, p, n, name=name)


# -- file format ------------------------------------------------------


def parse_form(text, quandle, name=""):
    """Parse the form file format against a given quandle.

    Line 1: ``form m n p`` with n >= 0.  Then one block per pair: a
    ``B x y`` line (1-based labels) followed by n rows of n entries in
    0..p-1.  Every pair must appear exactly once.  Validates the axioms before
    returning.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise InputError("empty form file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "form":
        raise InputError(f"line {lineno}: expected header 'form m n p', got {header!r}")
    try:
        m, n, p = (int(t) for t in parts[1:])
    except ValueError:
        raise InputError(f"line {lineno}: m, n, p must be integers")
    if n < 0:
        raise InputError(f"line {lineno}: matrix dimension must be >= 0, got {n}")
    if m != quandle.order:
        raise InputError(
            f"form is indexed by {m} elements but the quandle has {quandle.order}"
        )
    field = PrimeField(p)

    blocks = {}
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        parts = line.split()
        if parts[0] != "B" or len(parts) != 3:
            raise InputError(f"line {lineno}: expected a 'B x y' block header")
        try:
            x, y = int(parts[1]), int(parts[2])
        except ValueError:
            raise InputError(f"line {lineno}: block labels must be integers")
        if not (1 <= x <= m and 1 <= y <= m):
            raise InputError(f"line {lineno}: block label ({x},{y}) out of range 1..{m}")
        if (x - 1, y - 1) in blocks:
            raise InputError(f"line {lineno}: duplicate block ({x},{y})")
        rows = []
        for r in range(n):
            if i + 1 + r >= len(lines):
                raise InputError(f"line {lineno}: block ({x},{y}) is missing matrix rows")
            rlineno, rline = lines[i + 1 + r]
            entries = rline.split()
            if len(entries) != n:
                raise InputError(
                    f"line {rlineno}: expected {n} entries, found {len(entries)}"
                )
            try:
                row = tuple(int(e) for e in entries)
            except ValueError:
                raise InputError(f"line {rlineno}: matrix entries must be integers")
            if any(not 0 <= e < p for e in row):
                raise InputError(f"line {rlineno}: entries must lie in 0..{p - 1}")
            rows.append(row)
        blocks[(x - 1, y - 1)] = tuple(rows)
        i += 1 + n
    missing = [(x + 1, y + 1) for x in range(m) for y in range(m) if (x, y) not in blocks]
    if missing:
        raise InputError(f"missing blocks for pairs: {missing}")
    grid = [[blocks[(x, y)] for y in range(m)] for x in range(m)]
    return validate_form(quandle, grid, p, n, name=name)


def format_forms(forms):
    """Render BilinearForms in the 1-based text file format, one text
    per form, through one memo of block texts: each distinct block is
    formatted once for all the forms, and the ``B x y`` lines once per
    order m.  Each text is the one format_form gives its form alone."""
    headers = {}  # m -> the "B x y" lines, row-major
    texts = {}  # block -> its rows, entries joined by spaces, each ended by a newline
    out = []
    for form in forms:
        m = form.quandle.order
        if m not in headers:
            headers[m] = [f"B {x} {y}\n" for x in range(1, m + 1) for y in range(1, m + 1)]
        parts = [f"form {m} {form.n} {form.field.p}\n"]
        for header, B in zip(headers[m], itertools.chain.from_iterable(form.blocks)):
            text = texts.get(B)
            if text is None:
                text = texts[B] = "".join(" ".join(map(str, row)) + "\n" for row in B)
            parts += header, text
        out.append("".join(parts))
    return out


def format_form(form):
    """Render a BilinearForm in the 1-based text file format: line 1
    ``form m n p``, then for each pair, row-major, a ``B x y`` line and
    the n rows of B[x-1][y-1] (see parse_form).  To render many forms,
    format_forms shares the work across them."""
    return format_forms([form])[0]


def load_form(path, quandle, name=None):
    text = read_text(path)
    inferred = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    return parse_form(text, quandle, name=inferred)

