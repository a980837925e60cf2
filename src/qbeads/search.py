"""Depth-first search for all bilinear form families on a quandle.

Every valid family is constant on the blocks (orbit of x, orbit of y),
where the orbits are those of Inn(X) (see the forms module docstring
for the two-line proof).  So the search assigns one matrix per
orbit-pair slot, r*r slots for r orbits, instead of one per element
pair.  The pairs are ordered diagonal first, (0,0), (1,1), ..., then
off-diagonal row-major, and the slots by the first pair in that order
that falls in them, so the r diagonal slots come first.

(iii) at z = y reads M = S = B[x][y] and T = B[y][y], so every valid
family has B[x][y] in {0, B[y][y]}.  Axiom (i) makes each diagonal
block alternating, so a diagonal slot (O, O) takes the alternating
matrices; in constant-diagonal mode every such slot after slot 0
copies slot 0.  An off-diagonal slot (O1, O2) comes after (O2, O2) and
takes 0 and B[O2][O2], once each, in that order.  Every block is thus
alternating, so alternating-only is a synonym of all.  A candidate is
a matrix's id, in the order of PrimeField.alternating_matrix: id 0 is
the zero matrix, and the ids follow the lexicographic order of the
entries read row by row.  A diagonal slot's candidates are
range(PrimeField.alternating_count(n)), never a list of matrices, and
a matrix is decoded only for an emitted form.  An emitted form's grid
is built from rows its search shares: row x reads the slots
pair_slot[x], and each distinct tuple of ids there is decoded once, so
a form's grid adds little more than its outer tuple to what run_search
holds.

Under orbit-constancy the fourth block an axiom instance reads is one
of the other three: B[x>z][y>z] = B[x][y] in (ii), and B[x>y][z] =
B[x][z] in (iii).  With M = B[x][y], S = B[x][z] and T = B[y][z], all
alternating, so c^T M c = 0, (ii) reads

    a^T [(Mc)(Tc)^T - (Sc)(Mc)^T] b = 0   for all a, b, c.

Wherever Mc != 0 the two rank-one terms must agree, which forces Sc =
Tc = k(c) Mc for some k(c) in F_p.  The c outside ker M span V, so S =
T.  If Mc and Md are independent, M(c + d) != 0 gives k(c) = k(c + d) =
k(d); a nonzero alternating M has rank at least 2, so every c outside
ker M has such a d, k is one constant and S = kM.  Conversely S = T =
kM makes both terms k (Mc)(Mc)^T.  So (ii) holds exactly when M = 0 or
S = T is in F_p M.  That implies (iii), (a^T M b)(b^T (S - T) c) = 0 at
the same three slots, so this one rule decides both.  The searcher
reads it as set membership: S = T and S is in the ids of k M for k in
F_p (_multiples), which scaling M's base-p digits gives, built once
per distinct nonzero M the checks read and kept on the searcher.

Only the r^3 representative triples, least elements of their orbits,
are checked, each as (slot of B[x][y], of B[x][z], of B[y][z]), once
all three slots are assigned, pruning the branch on the first failure.
Completed leaves are therefore valid forms, and no valid form is
skipped.

Emission order is deterministic: lexicographic in the matrix of each
element pair, in pair order, as if every pair had its own slot and
took every matrix.  A pair whose slot appeared earlier copies that
slot's matrix and adds nothing to the order.

The guard counts the leaves this search can reach (_space_estimate)
from the orbit slots alone, and refuses above DEFAULT_SPACE_BOUND
unless allow_large is set.  It bounds the forms, not the memory
run_search takes to hold them: swap3 at p=3, n=4 passes it with 534 353
forms, and `qbeads form-search --format json` on it peaked at 829 MB
RSS in 8.9 s, most of it the forms' texts (one run, CPython 3.11,
shared 2-core x86_64 host).
"""

import functools
import time
from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal

from .errors import InputError
from .field import PrimeField, check_vector_count
from .forms import BilinearForm, axiom_reads, form_violations

MODES = ("all", "alternating-only", "constant-diagonal")
DEFAULT_SPACE_BOUND = 10**9


@dataclass
class SearchResult:
    forms: list = dataclass_field(default_factory=list)
    complete: bool = True
    nodes: int = 0
    emitted: int = 0
    elapsed: float = 0.0
    space_estimate: int = 0


def _pair_order(m):
    pairs = [(x, x) for x in range(m)]
    pairs += [(x, y) for x in range(m) for y in range(m) if x != y]
    return pairs


def _orbit_slots(quandle):
    """Orbit-pair slots in order of first appearance in _pair_order.

    Returns (slots, pair_slot): slots[k] is the (orbit, orbit) pair of
    slot k, with orbits labelled by their least element, and
    pair_slot[x][y] the slot of element pair (x, y).
    """
    orbit = quandle.orbits()
    index = {}
    for x, y in _pair_order(quandle.order):
        index.setdefault((orbit[x], orbit[y]), len(index))
    pair_slot = [[index[(ox, oy)] for oy in orbit] for ox in orbit]
    return list(index), pair_slot


def _check_schedule(quandle, slots, pair_slot):
    """Slot index -> the checks first decidable there.

    A check is (xy, xz, yz): the slots of B[x][y], B[x][z] and B[y][z]
    that the (ii) and (iii) instances at a representative triple read
    (x, y, z least elements of their orbits).  Their fourth blocks lie
    in the slots of (x, y) and of (x, z), as x>z and x>y lie in the
    orbit of x and y>z in that of y.  A check is kept once, at the
    largest slot it reads, so it runs as early as possible.
    """
    reps = sorted({ox for ox, _ in slots})
    schedule = [{} for _ in slots]
    for kind, xy, xz, yz, out in axiom_reads(quandle, reps, pair_slot):
        assert out == (xy if kind == "ii" else xz), "orbit slots must hold the fourth block"
        schedule[max(xy, xz, yz)].setdefault((xy, xz, yz), None)
    return [list(checks) for checks in schedule]


def _space_estimate(slots, A, constant_diagonal):
    """The leaves the search can reach, A^d * min(2, A)^(r(r-1)): each of
    the d diagonal slots that choose freely (r, or 1 in constant-diagonal
    mode) takes the A alternating matrices (PrimeField.alternating_count),
    and each off-diagonal slot 0 or its column's diagonal matrix."""
    diagonal = sum(ox == oy for ox, oy in slots)
    free = min(diagonal, 1) if constant_diagonal else diagonal
    return A**free * min(2, A) ** (len(slots) - diagonal)


def _multiples(p, M):
    """The ids of k*M for k in F_p, M the id of a nonzero alternating
    matrix.  An id's base-p digits are its matrix's upper-triangle
    entries (PrimeField.alternating_matrix), so k*M scales each digit
    mod p."""
    places = []  # (digit, place value) of each nonzero digit of M
    place = 1
    while M:
        M, digit = divmod(M, p)
        if digit:
            places.append((digit, place))
        place *= p
    return frozenset(sum(k * digit % p * place for digit, place in places) for k in range(p))


class _Searcher:
    def __init__(self, quandle, field, n, constant_diagonal, slots, pair_slot):
        self.quandle = quandle
        self.field = field
        self.n = n
        self.constant_diagonal = constant_diagonal
        # a candidate is an alternating matrix's id, 0 the zero matrix,
        # decoded only for an emitted form
        self.alternating = field.alternating_count(n)
        self.matrix = functools.cache(functools.partial(field.alternating_matrix, n))
        # nonzero id M -> the ids of F_p M, found once per M a check reads
        self.multiples = functools.cache(functools.partial(_multiples, field.p))
        # the ids a pair_slot row reads -> its decoded row, which every
        # emitted form with those ids shares
        self.rows = {}

        self.slots, self.pair_slot = slots, pair_slot
        # slot (O1, O2) -> the slot (O2, O2), assigned first: the diagonal
        # slots lead the order
        diagonal = {ox: k for k, (ox, oy) in enumerate(self.slots) if ox == oy}
        self.column_diagonal = [diagonal[oy] for _, oy in self.slots]
        self.schedule = _check_schedule(quandle, self.slots, self.pair_slot)

    def slot_candidates(self, k, assigned):
        ox, oy = self.slots[k]
        if ox == oy:
            if self.constant_diagonal and k > 0:
                return [assigned[0]]
            return range(self.alternating)
        # B[O1][O2] is 0 or B[O2][O2], in id order
        diagonal = assigned[self.column_diagonal[k]]
        return [0, diagonal] if diagonal else [0]

    def holds(self, checks, assigned):
        """Whether every check passes on the assigned candidates: a
        check (xy, xz, yz) reads M, S and T at those slots, and passes
        exactly when M = 0 or S = T is in F_p M."""
        for xy, xz, yz in checks:
            M, S = assigned[xy], assigned[xz]
            if M and (S != assigned[yz] or S not in self.multiples(M)):
                return False
        return True

    def grid(self, assigned):
        """The blocks of the form the assigned ids make, built from
        shared rows: row x reads the slots pair_slot[x], and is decoded
        once per distinct tuple of ids it reads."""
        grid = []
        for slots in self.pair_slot:
            ids = tuple(map(assigned.__getitem__, slots))
            row = self.rows.get(ids)
            if row is None:
                row = self.rows[ids] = tuple(map(self.matrix, ids))
            grid.append(row)
        return tuple(grid)

    def dfs(self, limit, deadline, status):
        """Yield the valid forms depth first.  path holds an iterator over
        the untried candidates of each slot on it: a loop, not a call per
        slot, so no number of orbits passes the recursion limit."""
        n_slots = len(self.slots)
        assigned = [None] * n_slots
        path = [iter(self.slot_candidates(0, assigned))]
        while path:
            k = len(path) - 1
            for mat_id in path[k]:
                if (deadline is not None and time.monotonic() > deadline) or (
                    limit is not None and status.emitted >= limit
                ):
                    status.complete = False
                    return
                assigned[k] = mat_id
                status.nodes += 1
                if not self.holds(self.schedule[k], assigned):
                    continue
                if k + 1 < n_slots:
                    path.append(iter(self.slot_candidates(k + 1, assigned)))
                    break
                status.emitted += 1
                yield BilinearForm(self.quandle, self.field, self.n, self.grid(assigned))
            else:
                path.pop()


def search_forms(
    quandle,
    p,
    n,
    mode="all",
    limit=None,
    time_budget=None,
    allow_large=False,
    status=None,
):
    """Stream every valid BilinearForm on the quandle, depth first.

    Refuses a search of more than DEFAULT_SPACE_BOUND leaves unless
    allow_large is set; alternating-only is a synonym of all.  When
    time_budget (seconds, positive) runs out the stream simply ends;
    pass a SearchResult as status to observe the incomplete flag.
    run_search wraps all of this and returns the collected SearchResult.
    """
    if mode not in MODES:
        raise InputError(f"unknown search mode {mode!r}, expected one of {MODES}")
    field = PrimeField(p)
    if n < 0:
        raise InputError(f"matrix dimension must be >= 0, got {n}")
    check_vector_count(p, n)
    if limit is not None and limit < 0:
        raise InputError(f"limit must be >= 0, got {limit}")
    # not "<= 0", which a NaN budget passes
    if time_budget is not None and not time_budget > 0:
        raise InputError(f"time budget must be a positive number of seconds, got {time_budget}")
    constant_diagonal = mode == "constant-diagonal"
    slots, pair_slot = _orbit_slots(quandle)
    estimate = _space_estimate(slots, field.alternating_count(n), constant_diagonal)
    if status is None:
        status = SearchResult()
    # every run field starts afresh, so a reused status reports this run only
    status.__init__(space_estimate=estimate)
    if estimate > DEFAULT_SPACE_BOUND and not allow_large:
        # Decimal, as a float overflows past about 1.8e308
        raise InputError(
            f"search space estimate {Decimal(estimate):.2e} exceeds the bound "
            f"{DEFAULT_SPACE_BOUND:.2e}; pass allow_large (--allow-large) to proceed"
        )
    searcher = _Searcher(quandle, field, n, constant_diagonal, slots, pair_slot)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    start = time.monotonic()
    for form in searcher.dfs(limit, deadline, status):
        yield form
    status.elapsed = time.monotonic() - start


def run_search(quandle, p, n, mode="all", **kwargs):
    """Collect the search stream into a SearchResult."""
    result = SearchResult()
    result.forms = list(search_forms(quandle, p, n, mode=mode, status=result, **kwargs))
    return result


def verify_search_output(result):
    """Re-validate every emitted form with form_violations.

    form_violations checks (ii) and (iii) with forms.axiom_failures on
    every block tuple, while the search decides both by one closed-form
    rule on matrix ids, so this re-checks that rule as well as how
    leaves are assembled; the tests compare axiom_failures with a
    brute-force sweep over all vector triples.  The forms share one
    form_violations memo per field and n, so each (kind, four matrices)
    tuple is decided once for all of them.
    """
    failures = []
    memos = {}  # (field, n) -> form_violations memo
    for i, form in enumerate(result.forms):
        memo = memos.setdefault((form.field, form.n), {})
        violations = form_violations(form.quandle, form.blocks, form.field, form.n, memo=memo)
        if violations:
            failures.append((i, violations))
    return failures
