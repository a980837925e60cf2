"""Depth-first search for all bilinear form families on a quandle.

Every valid family is constant on the blocks (orbit of x, orbit of y),
where the orbits are those of Inn(X) (see the forms module docstring
for the two-line proof).  So the search assigns one matrix per
orbit-pair slot, r*r slots for r orbits, instead of one per element
pair.  The pairs are ordered diagonal first, (0,0), (1,1), ..., then
off-diagonal row-major, and the slots by the first pair in that order
that falls in them, so the r diagonal slots come first.

Under orbit-constancy the fourth block an axiom instance reads is one
of the other three: B[x>z][y>z] = B[x][y] in (ii), and B[x>y][z] =
B[x][z] in (iii).  With M = B[x][y], S = B[x][z] and T = B[y][z],
(iii) then reads (a^T M b)(b^T (S - T) c) = 0 for all a, b, c.  If
M != 0 and S != T, the b with Mb = 0 and the b with (S - T)^T b = 0
are two proper subspaces, and no vector space is the union of two, so
some b fails: (iii) holds exactly when M = 0 or S = T.  (ii) expands
to (b^T T c)(a^T M c) + (a^T S c)(c^T M b) + (a^T S c)(b^T T c)(c^T M c)
= 0, which holds when M = 0 or S = T = 0; when M != 0 and exactly one
of S, T is 0 a single product is left, and the same argument makes it
fail.  The other (ii) cases go to forms.axiom_failures, the unit-vector
check form validation runs, once per (M, S, T) in a search.

(iii) at z = y reads M = S = B[x][y] and T = B[y][y], so every valid
family has B[x][y] in {0, B[y][y]}.  Axiom (i) makes each diagonal
block alternating, so a diagonal slot (O, O) takes the alternating
matrices; in constant-diagonal mode every such slot after slot 0
copies slot 0.  An off-diagonal slot (O1, O2) comes after (O2, O2) and
takes 0 and B[O2][O2], once each, in alternating_matrices order.
Every block is thus alternating, and the modes all and
alternating-only find the same forms.

Only the r^3 representative triples, least elements of their orbits,
are checked, each as (kind, slot of B[x][y], of B[x][z], of B[y][z]),
once all three slots are assigned, pruning the branch on the first
failure.  Completed leaves are therefore valid forms, and no valid
form is skipped.  A bilinear table is built when a decision first
reads it, so a search builds at most one per alternating matrix.

Emission order is deterministic: lexicographic in the matrix of each
element pair, in pair order, as if every pair had its own slot and
took every matrix.  A pair whose slot appeared earlier copies that
slot's matrix and adds nothing to the order.

The guard bounds the naive space of _space_estimate, as if every pair
had a slot and took every matrix its mode allows, and refuses a search
above a configurable bound unless allow_large is set; m=3, p=2, n=2
gives 16^9, about 7e10, yet the search takes milliseconds.
"""

import time
from dataclasses import dataclass, field as dataclass_field

from .errors import InputError
from .field import PrimeField, check_vector_count
from .forms import BilinearForm, axiom_failures, axiom_reads, form_violations

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
    mode: str = "all"


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
    """Slot index -> the axiom checks first decidable there.

    A check is (kind, xy, xz, yz): the slots of B[x][y], B[x][z] and
    B[y][z] at a representative instance ("ii" or "iii", x, y, z least
    elements of their orbits).  Its fourth block, B[x>z][y>z] for (ii)
    or B[x>y][z] for (iii), lies in the slot of (x, y) or of (x, z),
    since x>z and x>y lie in the orbit of x and y>z in that of y.  A
    check is scheduled at the largest slot it reads, so it runs as
    early as possible, and instances that read the same slots are kept
    once per slot.
    """
    reps = sorted({ox for ox, _ in slots})
    schedule = [{} for _ in slots]
    for kind, xy, xz, yz, out in axiom_reads(quandle, reps, pair_slot):
        assert out == (xy if kind == "ii" else xz), "orbit slots must hold the fourth block"
        schedule[max(xy, xz, yz)].setdefault((kind, xy, xz, yz), None)
    return [list(checks) for checks in schedule]


def _space_estimate(m, p, n, mode):
    """The naive space the guard bounds: (widest pair)^(m*m), as if
    every element pair had a slot of its own.

    Computed from counts alone, so a refused search builds nothing:
    p^(n*n) candidate matrices, p^(n(n-1)/2) of them alternating (the
    diagonal is zero and the upper triangle fixes the lower one).  The
    widest pair is an off-diagonal one with every matrix, unless m = 1
    or the mode restricts every pair to alternating matrices.
    """
    alternating = p ** (n * (n - 1) // 2)
    width = alternating if m == 1 or mode == "alternating-only" else p ** (n * n)
    return width ** (m * m)


class _Searcher:
    def __init__(self, quandle, field, n, mode):
        self.quandle = quandle
        self.field = field
        self.n = n
        self.mode = mode

        # a candidate is an index into this list, whose first matrix is zero
        self.matrices = list(field.alternating_matrices(n))
        # bilinear tables by candidate, each built when a decision first reads it
        self.tables = [None] * len(self.matrices)

        self.slots, self.pair_slot = _orbit_slots(quandle)
        # slot (O1, O2) -> the slot (O2, O2), assigned first: the diagonal
        # slots lead the order
        diagonal = {ox: k for k, (ox, oy) in enumerate(self.slots) if ox == oy}
        self.column_diagonal = [diagonal[oy] for _, oy in self.slots]
        self.schedule = _check_schedule(quandle, self.slots, self.pair_slot)
        # candidates (M, S, T) -> verdict of (ii), for this search only
        self.decided = {}

    def slot_candidates(self, k, assigned):
        ox, oy = self.slots[k]
        if ox == oy:
            if self.mode == "constant-diagonal" and k > 0:
                return [assigned[0]]
            return range(len(self.matrices))
        # B[O1][O2] is 0 or B[O2][O2], in alternating_matrices order
        diagonal = assigned[self.column_diagonal[k]]
        return [0, diagonal] if diagonal else [0]

    def holds(self, checks, assigned):
        """Whether every check passes on the assigned candidates.

        A check (kind, xy, xz, yz) reads M, S and T at those slots.
        (iii) holds exactly when M = 0 or S = T; (ii) holds when M = 0
        or S = T = 0, fails when M != 0 and exactly one of S, T is 0,
        and is otherwise decided by axiom_failures, once per (M, S, T).
        """
        for kind, xy, xz, yz in checks:
            M = assigned[xy]
            if not M:
                continue
            S, T = assigned[xz], assigned[yz]
            if kind == "iii":
                if S != T:
                    return False
            elif (S or T) and not (S and T and self.decide(M, S, T)):
                return False
        return True

    def decide(self, M, S, T):
        """Axiom (ii) on B[x][y] = M, B[x][z] = S, B[y][z] = T, and the
        out block B[x>z][y>z] = M, by the unit-vector check."""
        key = (M, S, T)
        ok = self.decided.get(key)
        if ok is None:
            vector_tables = self.field.vector_tables(self.n)
            for i in key:
                if self.tables[i] is None:
                    self.tables[i] = vector_tables.bilinear_table(self.matrices[i])
            tables = [self.tables[i] for i in key]
            failures = axiom_failures("ii", *tables, tables[0], vector_tables)
            ok = self.decided[key] = next(failures, None) is None
        return ok

    def dfs(self, limit, deadline, status):
        n_slots = len(self.slots)
        assigned = [None] * n_slots

        def emit():
            grid = tuple(
                tuple(self.matrices[assigned[k]] for k in row) for row in self.pair_slot
            )
            return BilinearForm(self.quandle, self.field, self.n, grid)

        def walk(k):
            if deadline is not None and time.monotonic() > deadline:
                status.complete = False
                return
            if k == n_slots:
                status.emitted += 1
                yield emit()
                return
            for mat_id in self.slot_candidates(k, assigned):
                if limit is not None and status.emitted >= limit:
                    status.complete = False
                    return
                assigned[k] = mat_id
                status.nodes += 1
                if self.holds(self.schedule[k], assigned):
                    yield from walk(k + 1)
                assigned[k] = None
                if not status.complete:
                    return

        yield from walk(0)


def search_forms(
    quandle,
    p,
    n,
    mode="all",
    limit=None,
    time_budget=None,
    space_bound=DEFAULT_SPACE_BOUND,
    allow_large=False,
    status=None,
):
    """Stream every valid BilinearForm on the quandle, depth first.

    Refuses oversized searches unless allow_large is set.  When
    time_budget (seconds, positive) runs out the stream simply ends;
    pass a SearchResult as status to observe the incomplete flag.
    run_search wraps all of this and returns the collected SearchResult.
    """
    if mode not in MODES:
        raise InputError(f"unknown search mode {mode!r}, expected one of {MODES}")
    field = PrimeField(p)
    if n < 0:
        raise InputError(f"matrix dimension must be >= 0, got {n}")
    # before the estimate, whose float formatting overflows far past it
    check_vector_count(p, n)
    if limit is not None and limit < 0:
        raise InputError(f"limit must be >= 0, got {limit}")
    # not "<= 0", which a NaN budget passes
    if time_budget is not None and not time_budget > 0:
        raise InputError(f"time budget must be a positive number of seconds, got {time_budget}")
    estimate = _space_estimate(quandle.order, p, n, mode)
    if status is None:
        status = SearchResult()
    # every run field starts afresh, so a reused status reports this run only
    status.__init__(mode=mode, space_estimate=estimate)
    if estimate > space_bound and not allow_large:
        raise InputError(
            f"search space estimate {estimate:.2e} exceeds the bound "
            f"{space_bound:.2e}; pass allow_large to proceed"
        )
    searcher = _Searcher(quandle, field, n, mode)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    start = time.monotonic()
    for form in searcher.dfs(limit, deadline, status):
        yield form
    status.elapsed = time.monotonic() - start


def run_search(quandle, p, n, mode="all", **kwargs):
    """Collect the search stream into a SearchResult."""
    result = SearchResult(mode=mode)
    result.forms = list(
        search_forms(quandle, p, n, mode=mode, status=result, **kwargs)
    )
    return result


def verify_search_output(result):
    """Re-validate every emitted form with form_violations.

    form_violations checks (ii) and (iii) with forms.axiom_failures on
    every block tuple, while the search decides (iii) and most of (ii)
    in closed form, so this re-checks those verdicts as well as how
    leaves are assembled; the tests compare axiom_failures with a
    brute-force sweep over all vector triples.
    """
    failures = []
    for i, form in enumerate(result.forms):
        violations = form_violations(form.quandle, form.blocks, form.field, form.n)
        if violations:
            failures.append((i, violations))
    return failures
