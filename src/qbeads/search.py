"""Depth-first search for all bilinear form families on a quandle.

The m*m index pairs are assigned in a fixed order: diagonal pairs
(0,0), (1,1), ... first, then off-diagonal pairs row-major.  Diagonal
candidates are restricted to alternating matrices (exactly axiom (i));
after each assignment every instance of axioms (ii)/(iii) whose
referenced pairs are all assigned is checked by forms.axiom_failures,
pruning the branch on the first failure.  That checker, shared with
form validation, runs over unit vectors only: both sides of (ii) are
bilinear in (a, b) for fixed c, and both sides of (iii) in (a, c) for
fixed b, so unit vectors decide each instance exactly.  Because every
instance has been checked once the last pair is assigned, completed
leaves are valid forms; emission order is deterministic (lexicographic
matrices within each slot).

The naive space (#candidate matrices)^(#pairs) is refused above a
configurable bound unless allow_large is set, since even small
parameters explode: m=3, p=2, n=2 gives 16^9, about 7e10, yet prunes
down to a sub-minute search.
"""

import time
from dataclasses import dataclass, field as dataclass_field

from .errors import InputError
from .field import PrimeField, VectorTables
from .forms import BilinearForm, axiom_failures, form_violations

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


def _instance_schedule(quandle, pair_slot):
    """Map slot index -> list of axiom instances first checkable there.

    An instance is ("ii", x, y, z) or ("iii", x, y, z); it is scheduled
    at the largest slot among its referenced pairs, so every instance
    runs exactly once and as early as possible.
    """
    m = quandle.order
    op = quandle.op
    schedule = {k: [] for k in range(len(pair_slot))}
    for x in range(m):
        for y in range(m):
            for z in range(m):
                refs_ii = [
                    (x, y),
                    (x, z),
                    (y, z),
                    (op(x, z), op(y, z)),
                ]
                schedule[max(pair_slot[r] for r in refs_ii)].append(("ii", x, y, z))
                refs_iii = [(x, y), (x, z), (y, z), (op(x, y), z)]
                schedule[max(pair_slot[r] for r in refs_iii)].append(("iii", x, y, z))
    return schedule


def _space_estimate(m, p, n, mode):
    """The naive space the guard bounds: (widest slot)^(m*m).

    Computed from counts alone, so a refused search builds nothing:
    p^(n*n) candidate matrices, p^(n(n-1)/2) of them alternating (the
    diagonal is zero and the upper triangle fixes the lower one).  The
    widest slot is an off-diagonal one with every matrix, unless m = 1
    or the mode restricts every slot to alternating matrices.
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

        self.vector_tables = VectorTables(field, n)
        self.all_mats = list(field.all_matrices(n))
        self.alt_ids = [i for i, M in enumerate(self.all_mats) if field.is_alternating(M)]
        # one bilinear table per candidate matrix, shared across slots
        self.tables = [self.vector_tables.bilinear_table(M) for M in self.all_mats]

        self.pairs = _pair_order(quandle.order)
        self.pair_slot = {pair: k for k, pair in enumerate(self.pairs)}
        self.schedule = _instance_schedule(quandle, self.pair_slot)

    def slot_candidates(self, k):
        x, y = self.pairs[k]
        if x == y:
            if self.mode == "constant-diagonal" and k > 0:
                return None  # copy of slot 0, handled in the DFS
            return self.alt_ids
        if self.mode == "alternating-only":
            return self.alt_ids
        return list(range(len(self.all_mats)))

    def check_instance(self, instance, assigned):
        kind, x, y, z = instance
        table = lambda u, v: self.tables[assigned[self.pair_slot[(u, v)]]]
        failures = axiom_failures(
            kind, x, y, z, self.quandle.op, table, self.vector_tables
        )
        return next(failures, None) is None

    def dfs(self, limit, deadline, status):
        n_slots = len(self.pairs)
        assigned = [None] * n_slots

        def emit():
            m = self.quandle.order
            grid = [[None] * m for _ in range(m)]
            for k, (x, y) in enumerate(self.pairs):
                grid[x][y] = self.all_mats[assigned[k]]
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
                ok = all(
                    self.check_instance(inst, assigned) for inst in self.schedule[k]
                )
                if ok:
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
    if limit is not None and limit < 0:
        raise InputError(f"limit must be >= 0, got {limit}")
    estimate = _space_estimate(quandle.order, p, n, mode)
    if status is None:
        status = SearchResult()
    status.mode = mode
    status.space_estimate = estimate
    status.emitted = 0
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
