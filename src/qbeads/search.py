"""Depth-first search for all bilinear form families on a quandle.

Every valid family is constant on the blocks (orbit of x, orbit of y),
where the orbits are those of Inn(X) (see the forms module docstring
for the two-line proof).  So the search assigns one matrix per
orbit-pair slot, r*r slots for r orbits, instead of one per element
pair.  The pairs are ordered diagonal first, (0,0), (1,1), ..., then
off-diagonal row-major, and the slots by the first pair in that order
that falls in them.  A slot (O, O) holds diagonal pairs, so its
candidates are the alternating matrices (exactly axiom (i)); in
constant-diagonal mode every such slot after slot 0 copies slot 0.

Under orbit-constancy the axiom (ii)/(iii) instance at (x, y, z) reads
the same blocks as the one at the orbits' least elements, so only the
r^3 representative triples are checked, once all the slots they read
are assigned, pruning the branch on the first failure.  A verdict
depends only on the axiom and the four matrices read, so each instance
is decided once per distinct tuple of four candidate matrices, and the
verdicts are kept for one search only.  The checker,
forms.axiom_failures, is shared with form validation and runs over unit
vectors only: both sides of (ii) are bilinear in (a, b) for fixed c,
and both sides of (iii) in (a, c) for fixed b, so unit vectors decide
each instance exactly.  Completed leaves are therefore valid forms, and
no valid form is skipped.

Emission order is deterministic: lexicographic in the matrix of each
element pair, in pair order, as if every pair had its own slot.  A pair
whose slot appeared earlier copies that slot's matrix and adds nothing
to the order.

The naive space (#candidate matrices)^(#pairs) is refused above a
configurable bound unless allow_large is set, since even small
parameters explode: m=3, p=2, n=2 gives 16^9, about 7e10, yet prunes
down to a sub-second search.
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


def _instance_schedule(quandle, slots, pair_slot):
    """Slot index -> the axiom checks first decidable there.

    A check is (kind, slots read): the slots of the four blocks that a
    representative instance ("ii" or "iii", x, y, z least elements of
    their orbits) reads, in axiom_failures order.  It is scheduled at
    the largest of those slots, so it runs as early as possible, and
    instances that read the same slots are kept once per slot.
    """
    reps = sorted({ox for ox, _ in slots})
    schedule = [{} for _ in slots]
    for check in axiom_reads(quandle, reps, pair_slot):
        schedule[max(check[1:])].setdefault(check, None)
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

        self.vector_tables = field.vector_tables(n)
        if mode == "alternating-only":
            # every slot takes alternating matrices only; build no other table
            self.all_mats = list(field.alternating_matrices(n))
        else:
            self.all_mats = list(field.all_matrices(n))
        self.alt_ids = [i for i, M in enumerate(self.all_mats) if field.is_alternating(M)]
        # one bilinear table per candidate matrix, shared across slots
        self.tables = [self.vector_tables.bilinear_table(M) for M in self.all_mats]

        self.slots, self.pair_slot = _orbit_slots(quandle)
        self.schedule = _instance_schedule(quandle, self.slots, self.pair_slot)
        # (kind, candidate id at each slot read) -> verdict, for this search only
        self.decided = {}

    def slot_candidates(self, k):
        ox, oy = self.slots[k]
        if ox == oy:
            if self.mode == "constant-diagonal" and k > 0:
                return None  # copy of slot 0, handled in the DFS
            return self.alt_ids
        return list(range(len(self.all_mats)))

    def holds(self, checks, assigned):
        """Whether every check passes on the assigned candidates, each
        decided once per distinct tuple of the four matrices it reads."""
        decided, tables = self.decided, self.tables
        for kind, xy, xz, yz, out in checks:
            key = (kind, assigned[xy], assigned[xz], assigned[yz], assigned[out])
            ok = decided.get(key)
            if ok is None:
                failures = axiom_failures(
                    kind, *(tables[mat_id] for mat_id in key[1:]), self.vector_tables
                )
                ok = decided[key] = next(failures, None) is None
            if not ok:
                return False
        return True

    def dfs(self, limit, deadline, status):
        n_slots = len(self.slots)
        assigned = [None] * n_slots

        def emit():
            grid = tuple(
                tuple(self.all_mats[assigned[k]] for k in row) for row in self.pair_slot
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
            cands = self.slot_candidates(k)
            if cands is None:
                cands = [assigned[0]]
            for mat_id in cands:
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
    time_budget (seconds) runs out the stream simply ends; pass a
    SearchResult as status to observe the incomplete flag.  run_search
    wraps all of this and returns the collected SearchResult.
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

    This shares forms.axiom_failures with the search itself, so it
    re-checks how leaves are assembled rather than the axiom checker;
    the tests compare that checker with a brute-force sweep over all
    vector triples.
    """
    failures = []
    for i, form in enumerate(result.forms):
        violations = form_violations(form.quandle, form.blocks, form.field, form.n)
        if violations:
            failures.append((i, violations))
    return failures
