"""The benchmark's frozen base inputs and what each workload runs.

Everything named here lives as a file under data/, written once by
freeze.py.  Workloads read those files, never the constructors, so a
later change to tools/ or to qbeads' constructions cannot change what
is measured.
"""

from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# -- invariant-ladder --------------------------------------------------

# id -> (construction as called on tools/gen_catalog.py, description)
LADDER_DIAGRAMS = {
    "T33": ("braid_closure(3, [1, 2] * 3)", "torus link T(3,3)"),
    "T44": ("braid_closure(4, [1, 2, 3] * 4)", "torus link T(4,4)"),
    "T36": ("braid_closure(3, [1, 2] * 6)", "torus link T(3,6)"),
    "chain4": ("braid_closure(3, [1, -2] * 4)", "closure of (s1 s2^-1)^4"),
    "chain6": ("braid_closure(3, [1, -2] * 6)", "closure of (s1 s2^-1)^6"),
    "chain3x4": ("braid_closure(4, [1, -2, 3] * 4)", "closure of (s1 s2^-1 s3)^4"),
    "P2222": ("pretzel_link([2, 2, 2, 2])", "pretzel link P(2,2,2,2)"),
    "P22222": ("pretzel_link([2, 2, 2, 2, 2])", "pretzel link P(2,2,2,2,2)"),
    "P333": ("pretzel_link([3, 3, 3])", "pretzel link P(3,3,3)"),
    "R222222": ("rational_link([2, 2, 2, 2, 2, 2])", "two-bridge link [2,2,2,2,2,2]"),
}

# (quandle id, form id) pairs, each run on every ladder diagram except
# the combinations in LADDER_SKIP
LADDER_PAIRS = [
    ("swap3", "swap3-partial"),
    ("swap3", "swap3-F9"),
    ("alex52", "alex52-F4"),
    ("conjS3", "conjS3-F4"),
]

# Left out: the 12-crossing chains over F_3^2 take 5-10 s each, longer
# than a whole pass of everything else.  The others take from 2x to 25x
# longer under one arc labelling than under another (P(2,2,2,2,2) over
# F_3^2: 0.5-5.2 s; T(3,6) over F_3^2: 0.09-2.1 s; P(2,2,2,2,2) over
# S3: 0.7-1.9 s), more spread than the rest of a pass has in total, so
# runs on different seeds could not be compared.
LADDER_SKIP = {
    ("chain6", "swap3-F9"),
    ("chain3x4", "swap3-F9"),
    ("T36", "swap3-F9"),
    ("P22222", "swap3-F9"),
    ("P22222", "conjS3-F4"),
    ("chain6", "conjS3-F4"),
    ("chain3x4", "conjS3-F4"),
}


def ladder_items():
    return [
        (d, q, f)
        for q, f in LADDER_PAIRS
        for d in LADDER_DIAGRAMS
        if (d, f) not in LADDER_SKIP
    ]


# -- quandles ------------------------------------------------------------

# id -> (construction in qbeads.quandle, description); swap3 is copied
# from the shipped catalog
QUANDLES = {
    "swap3": ("catalog swap3", "order-3 quandle from the shipped catalog"),
    "symp22": (
        "symplectic_quandle(2, 2, [[0, 1], [1, 0]])",
        "symplectic quandle on F_2^2, 4 elements",
    ),
    "alex52": ("alexander_quandle(5, 2)", "Alexander quandle Z_5, t = 2"),
    "alex43": ("alexander_quandle(4, 3)", "Alexander quandle Z_4, t = 3 (dihedral R_4)"),
    "conjS3": (
        "conjugation_quandle(S3)",
        "conjugation quandle of S3, 6 elements; S3 as permutations of "
        "(0,1,2) in lexicographic order, composed as (a*b)(i) = a(b(i))",
    ),
}

# -- forms ---------------------------------------------------------------

S4 = ((0, 1), (1, 0))  # symplectic over F_2
S9 = ((0, 1), (2, 0))  # symplectic over F_3
S16 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))  # over F_2, n = 4

# id -> (quandle id, p, n, matrix) for constant forms.  A constant
# alternating family satisfies axioms (i) to (iii) on every quandle.
CONSTANT_FORMS = {
    "swap3-F9": ("swap3", 3, 2, S9),
    "alex52-F4": ("alex52", 2, 2, S4),
    "conjS3-F4": ("conjS3", 2, 2, S4),
    "symp22-F9": ("symp22", 3, 2, S9),
    "alex52-F9": ("alex52", 3, 2, S9),
    "conjS3-F9": ("conjS3", 3, 2, S9),
    "swap3-F16": ("swap3", 2, 4, S16),
}

# id -> (base form id, block (x, y), entry (i, j)), all 0-based; the
# entry is raised by one mod p, which breaks the axioms
MUTANTS = {
    "swap3-F9-m1": ("swap3-F9", (0, 1), (0, 0)),
    "swap3-F9-m2": ("swap3-F9", (2, 2), (0, 1)),
    "swap3-F9-m3": ("swap3-F9", (1, 0), (1, 0)),
    "swap3-F9-m4": ("swap3-F9", (1, 2), (1, 1)),
    "swap3-F9-m5": ("swap3-F9", (2, 0), (0, 0)),
    "swap3-F9-m6": ("swap3-F9", (0, 0), (1, 1)),
    "swap3-F9-m7": ("swap3-F9", (2, 1), (1, 0)),
    "symp22-F9-m1": ("symp22-F9", (0, 3), (1, 1)),
    "symp22-F9-m2": ("symp22-F9", (2, 2), (0, 0)),
    "alex52-F9-m1": ("alex52-F9", (4, 1), (0, 1)),
}

# -- form-validate ---------------------------------------------------------

# Eight of the fifteen forms are the cheap swap3 ones at p^n = 9 (0.35-0.4
# s each), so item_ms_p50 lands inside that group, which runs spread over
# the whole run, rather than on the two symp22 forms, whose time reflects
# the host's speed at two moments.

VALIDATE_FORMS = [
    "swap3-F9",
    "symp22-F9",
    "alex52-F9",
    "conjS3-F9",
    "swap3-F16",
    "swap3-F9-m1",
    "swap3-F9-m2",
    "swap3-F9-m3",
    "swap3-F9-m4",
    "swap3-F9-m5",
    "swap3-F9-m6",
    "swap3-F9-m7",
    "symp22-F9-m1",
    "symp22-F9-m2",
    "alex52-F9-m1",
]


def form_quandle(form_id):
    """The quandle id of a constant form or of a mutant of one."""
    base = MUTANTS[form_id][0] if form_id in MUTANTS else form_id
    return CONSTANT_FORMS[base][0]


# -- form-search -------------------------------------------------------------

# id -> (quandle id, p, n, mode)
SEARCHES = {
    "swap3-p2n2-all": ("swap3", 2, 2, "all"),
    "swap3-p3n2-alt": ("swap3", 3, 2, "alternating-only"),
    "swap3-p2n3-alt": ("swap3", 2, 3, "alternating-only"),
    "alex43-p2n2-all": ("alex43", 2, 2, "all"),
    "symp22-p2n2-all": ("symp22", 2, 2, "all"),
}

# -- catalog-batch -------------------------------------------------------------

BATCH_FORMS = ["swap3-partial", "swap3-full"]
