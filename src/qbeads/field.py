"""Arithmetic over the prime field F_p: scalars, vectors, and matrices.

Vectors are tuples of ints already reduced mod p, matrices are tuples of
row tuples.  Everything here is plain integer arithmetic; the sizes in
play (p and n both small) never justify anything heavier.
"""

import itertools

from .errors import InputError

# the largest field order and the most vectors of F_p^n accepted: the
# primality check trial-divides up to sqrt(p), and VectorTables holds
# two (p^n)^2 tables: building them at p^n = 1024 took 0.09-0.13 s, at
# a peak RSS of 32 MB for the whole process (CPython 3.11 on a shared
# 2-core x86 host)
MAX_VECTORS = 1024


def is_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_vector_count(p, n):
    """Refuse F_p^n, n >= 0, when it has more than MAX_VECTORS vectors."""
    # 2^n > MAX_VECTORS from its bit length on, so p**n stays small
    if n >= MAX_VECTORS.bit_length() or p**n > MAX_VECTORS:
        raise InputError(f"F_{p}^{n} has more than {MAX_VECTORS} vectors, the most supported")


def search_orbits(points, step):
    """The orbits through points of the group that some permutations
    generate, each as a list led by its first point in points order.

    step(x) lists the images of x under each generator.  The inverse of
    a permutation of a finite set is one of its powers, so the closure
    of a point under the generators alone is its orbit.  (Kept here,
    below quandle and forms, which both import this module.)
    """
    seen = set()
    for x in points:
        if x not in seen:
            seen.add(x)
            orbit = [x]
            for y in orbit:
                for z in step(y):
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
            yield orbit


class PrimeField:
    """The field F_p together with vector/matrix helpers of any dimension."""

    def __init__(self, p):
        if isinstance(p, int) and p > MAX_VECTORS:
            raise InputError(f"field order {p} exceeds the largest supported, {MAX_VECTORS}")
        if not is_prime(p):
            raise InputError(f"field order must be prime, got {p!r}")
        self.p = p
        self._vector_tables = {}  # n -> VectorTables(self, n)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # -- vectors ------------------------------------------------------

    def all_vectors(self, n):
        """All p^n vectors in lexicographic order, (0,...,0) first.

        This order is a contract: anything that indexes vectors (the
        symplectic quandle construction, the bead-count engines) uses
        positions in this list as element ids.
        """
        return [tuple(v) for v in itertools.product(range(self.p), repeat=n)]

    def vector_tables(self, n):
        """The VectorTables of F_p^n, built on first use and kept, so
        everything working over this field object shares one.  Refuses
        F_p^n with more than MAX_VECTORS vectors before building it."""
        if n not in self._vector_tables:
            check_vector_count(self.p, n)
            self._vector_tables[n] = VectorTables(self, n)
        return self._vector_tables[n]

    # -- matrices -----------------------------------------------------

    def zero_matrix(self, n):
        return tuple((0,) * n for _ in range(n))

    def check_matrix(self, B, n):
        """Validate shape and entry range of an n-by-n matrix, return it."""
        if len(B) != n or any(len(row) != n for row in B):
            raise InputError(f"expected a {n}x{n} matrix")
        for row in B:
            for a in row:
                if not isinstance(a, int) or not 0 <= a < self.p:
                    raise InputError(
                        f"matrix entry {a!r} is not a reduced element of F_{self.p}"
                    )
        return tuple(tuple(row) for row in B)

    def alternating_matrix(self, n, k):
        """The alternating n-by-n matrix with id k < alternating_count(n):
        the base-p digits of k, most significant first, are its upper
        triangle read row by row, and the lower triangle their negatives.
        Each lower entry comes, row by row, after the upper entry that
        fixes it, so ids follow the lexicographic order of the entries
        read row by row, and id 0 is the zero matrix."""
        M = [[0] * n for _ in range(n)]
        for i, j in reversed([(i, j) for i in range(n) for j in range(i + 1, n)]):
            k, a = divmod(k, self.p)
            M[i][j] = a
            M[j][i] = -a % self.p
        return tuple(map(tuple, M))

    def alternating_count(self, n):
        """p^(n(n-1)/2): the number of alternating n-by-n matrices, one
        per free upper-triangle entry, so the ids alternating_matrix
        takes are range(alternating_count(n))."""
        return self.p ** (n * (n - 1) // 2)

    def is_alternating(self, B):
        """Zero diagonal and B^T = -B.

        Equivalent to v^T B v = 0 for every vector v: plugging in unit
        vectors forces the diagonal to vanish, and e_i + e_j then forces
        B[i][j] + B[j][i] = 0; the converse expansion is immediate.
        """
        n = len(B)
        for i in range(n):
            if B[i][i] % self.p != 0:
                return False
            for j in range(i + 1, n):
                if (B[i][j] + B[j][i]) % self.p != 0:
                    return False
        return True

    def matrix_rank(self, B):
        """Rank over F_p by Gaussian elimination."""
        rows = [list(r) for r in B]
        if not rows:
            return 0
        ncols = len(rows[0])
        rank = 0
        col = 0
        for col in range(ncols):
            pivot = None
            for r in range(rank, len(rows)):
                if rows[r][col] % self.p != 0:
                    pivot = r
                    break
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], self.p - 2, self.p)
            rows[rank] = [(a * inv) % self.p for a in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] % self.p != 0:
                    f = rows[r][col]
                    rows[r] = [(a - f * b) % self.p for a, b in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    def is_nondegenerate(self, B):
        return self.matrix_rank(B) == len(B)


class VectorTables:
    """Index tables over the vectors of F_p^n, shared by every loop that
    works on vector indices instead of tuples.

    Indices follow PrimeField.all_vectors(n) order.  vadd[i][j] is the
    index of vectors[i] + vectors[j], smul[s][j] that of s * vectors[j],
    and dot[i][j] is vectors[i] . vectors[j] mod p.  units holds the
    indices of the unit vectors e_1, ..., e_n in ascending index order,
    so a loop over them visits a subsequence of a loop over all vectors.

    The index of a vector has its coordinates as base-p digits, the
    first most significant, so index c*p^k + x of F_p^(k+1) is c
    followed by vectors[x] of F_p^k.  The tables of F_p^1 are the sums
    and products mod p, and those of F_p^(k+1) are built from those of
    F_p^k, each row a few slices, concatenations and map passes over
    rows already built, with no tuple arithmetic and no Python-level
    loop over p^2 entries.  Every entry is a reference to one shared
    list of the ints below max(p, p^n), never a freshly computed int,
    so the (p^n)^2 entries of vadd and dot cost a pointer each.
    """

    def __init__(self, field, n):
        p = self.p = field.p
        self.vectors = field.all_vectors(n)
        ints = list(range(max(p, p**n)))
        sums = [ints[e:p] + ints[:e] for e in range(p)]  # sums[e][d] = (e + d) mod p
        # products[c][b] = c*b mod p: row c is row c-1 plus b, read from sums
        products = [ints[:1] * p]
        for _ in range(p - 1):
            products.append(list(map(list.__getitem__, sums, products[-1])))
        chain = itertools.chain.from_iterable
        if n == 0:
            vadd, smul, dot = [[0]], [[0]] * p, [[0]]
        else:
            # F_p^1: vadd is sums, and c*b mod p is both smul and dot;
            # the copies keep the loop below from freeing rows of sums
            # and products
            vadd, smul, dot = sums[:], products, products[:]
        for k in range(1, n):
            # from F_p^k to F_p^(k+1): index c*q + x is (c, vectors[x])
            q = p**k
            blocks = [ints[c * q : c * q + q] for c in range(p)]
            next_vadd, next_dot = [None] * (p * q), [None] * (p * q)
            for x in range(q):
                # (c, x) + (b, y) = (c + b, x + y): row (c, x) is row (0, x)
                # turned left by c*q
                row = list(chain(map(block.__getitem__, vadd[x]) for block in blocks))
                # (c, x) . (b, y) = c*b + x . y: values[e][y] = (e + x . y) mod p
                values = [list(map(s.__getitem__, dot[x])) for s in sums]
                # F_p^k's rows are not read again: freeing them as we go
                # keeps the peak near the size of the final tables
                vadd[x] = dot[x] = None
                for c in range(p):
                    next_vadd[c * q + x] = row[c * q :] + row[: c * q]
                    next_dot[c * q + x] = list(chain(map(values.__getitem__, products[c])))
            smul = [
                list(chain(map(blocks[c].__getitem__, smul[s]) for c in products[s]))
                for s in range(p)
            ]
            vadd, dot = next_vadd, next_dot
        self.vadd, self.smul, self.dot = vadd, smul, dot
        # e_k has the single digit 1 at place n-1-k
        self.units = [p**j for j in range(n)]

    def bilinear_table(self, B):
        """t[i][j] = vectors[i]^T B vectors[j] mod p.

        Row i is the dot row of the functional vectors[i]^T B, so rows
        are shared between tables and with dot: treat them as read-only.
        The functional is linear in vectors[i], so its index is built
        one coordinate of vectors[i] at a time, like the tables above.
        """
        p, vadd, smul = self.p, self.vadd, self.smul
        functionals = [0]
        for B_j in B:
            k = 0  # the index of row j of B
            for b in B_j:
                k = k * p + b
            functionals = [vadd[f][smul[a][k]] for f in functionals for a in range(p)]
        return list(map(self.dot.__getitem__, functionals))

    def isometries(self, tables, cap):
        """Generators of the group H of invertible linear maps g with
        [gu, gv] = [u, v] under each bilinear table in tables, as
        permutations of vector indices: g[i] is the index of g applied
        to vectors[i].

        They form a stabiliser chain (Sims 1970).  For k = n, ..., 1,
        and for each image c of e_k outside e_k's orbit under the maps
        found so far, the search adds one map that fixes e_1, ...,
        e_{k-1} and sends e_k to c, if there is one; then the maps
        found generate the pointwise stabiliser of e_1, ..., e_{k-1}.
        A map is found by backtracking over the images of the basis:
        the image of e_j lies outside the span of the images before it,
        meets every table's Gram entries against them and itself, and
        lies in each table's left and right radicals exactly when e_j
        does.  The span is kept as the images of the vectors whose
        later coordinates are zero, in all_vectors order, so the span
        after the last column is the permutation.  Once more than cap
        partial maps have been accepted the search returns the maps
        found so far, which generate a subgroup of H.
        """
        p, vadd, smul = self.p, self.vadd, self.smul
        basis = sorted(self.units, reverse=True)  # e_1, ..., e_n
        grams = [(t, [[t[i][j] for j in basis] for i in basis]) for t in tables]
        columns = [list(map(any, zip(*t))) for t in tables]
        profile = [
            tuple((t[c][c], any(t[c]), column[c]) for t, column in zip(tables, columns))
            for c in range(len(self.vectors))
        ]
        # options[j]: the images of e_j that the profile allows
        options = [[c for c, f in enumerate(profile) if f == profile[e]] for e in basis]
        accepted = 0

        def first_map(images, span, candidates=None):
            """The first isometry that sends e_1, ..., e_j to images and
            e_{j+1} into candidates (options[j] if None), or None."""
            nonlocal accepted
            j = len(images)
            if j == len(basis):
                return span
            taken = set(span)
            for c in options[j] if candidates is None else candidates:
                if c in taken or any(
                    t[c][d] != gram[j][i] or t[d][c] != gram[i][j]
                    for t, gram in grams
                    for i, d in enumerate(images)
                ):
                    continue
                accepted += 1
                if accepted > cap:
                    return None
                g = first_map(images + [c], [vadd[v][smul[s][c]] for v in span for s in range(p)])
                if g is not None or accepted > cap:
                    return g
            return None

        generators = []
        for k in reversed(range(len(basis))):
            # the span of basis[:k]: the indices divisible by p^(n-k)
            span = list(range(0, len(self.vectors), p ** (len(basis) - k)))
            orbit = {basis[k]}
            for c in options[k]:
                if c not in orbit:
                    g = first_map(basis[:k], span, [c])
                    if accepted > cap:
                        return generators
                    if g is not None:
                        generators.append(g)
                        orbit = set(
                            next(search_orbits([basis[k]], lambda x: [h[x] for h in generators]))
                        )
        return generators
