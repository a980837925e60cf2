import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qbeads import catalog, cli
from qbeads import forms as forms_module
from qbeads.errors import InputError, read_text
from qbeads.field import VectorTables
from qbeads.quandle import format_quandle, trivial_quandle
from qbeads.cli import (
    main,
    render_batch,
    render_catalog_list,
    render_check,
    render_invariant,
    render_search,
)

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    if out.out and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        # the writer prints what json.dumps prints, byte for byte
        assert out.out == json.dumps(json.loads(out.out), indent=2, sort_keys=True) + "\n"
    return code, out.out, out.err


# -- quandle-check -----------------------------------------------------


def test_quandle_check_valid_file(tmp_path, capsys):
    f = tmp_path / "q.quandle"
    f.write_text("quandle 3\n1 1 2\n2 2 1\n3 3 3\n")
    code, out, _ = run(capsys, "quandle-check", str(f))
    assert code == 0
    assert out == "valid\n"


def test_quandle_check_axiom_failure(tmp_path, capsys):
    f = tmp_path / "q.quandle"
    f.write_text("quandle 2\n2 1\n1 2\n")
    code, out, _ = run(capsys, "quandle-check", str(f))
    assert code == 1
    assert "invalid" in out
    assert "idempotence" in out


def test_quandle_check_malformed_is_exit_2(tmp_path, capsys):
    f = tmp_path / "q.quandle"
    f.write_text("quandle 2\n1\n")
    code, _, err = run(capsys, "quandle-check", str(f))
    assert code == 2
    assert "error" in err


def test_quandle_check_missing_file(capsys):
    code, _, err = run(capsys, "quandle-check", "/no/such/file")
    assert code == 2


# -- form-check --------------------------------------------------------


def test_form_check_catalog_pair(capsys):
    code, out, _ = run(capsys, "form-check", "swap3", "swap3-partial")
    assert (code, out) == (0, "valid\n")


def test_form_check_broken_form(tmp_path, capsys):
    good = (catalog.catalog_root() / "forms" / "swap3-partial.form").read_text()
    bad = good.replace("0 1", "1 1", 1)
    f = tmp_path / "bad.form"
    f.write_text(bad)
    code, out, _ = run(capsys, "form-check", "swap3", str(f))
    assert code == 1
    assert "invalid" in out


def test_form_check_quandle_mismatch(tmp_path, capsys):
    q = tmp_path / "t2.quandle"
    q.write_text("quandle 2\n1 1\n2 2\n")
    code, _, err = run(capsys, "form-check", str(q), "swap3-partial")
    assert code == 2
    assert err == "error: catalog form 'swap3-partial' belongs to quandle 'swap3'\n"
    # invariant and batch resolve the form the same way
    for sub in ("invariant", "batch"):
        argv = [sub, "--quandle", str(q), "--form", "swap3-partial"]
        argv += ["--link", "L2a1"] if sub == "invariant" else []
        assert run(capsys, *argv)[::2] == (2, err)


def test_catalog_quandle_is_loaded_once(monkeypatch, tmp_path, capsys):
    """A catalog form is validated against the catalog quandle that
    --quandle loaded; a quandle file is never taken for it, even under
    the catalog id's name."""
    loads = []
    original = catalog._load_quandle_file

    def counted(*args, **kwargs):
        loads.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog, "_load_quandle_file", counted)
    for argv in (
        ["batch", "--quandle", "swap3", "--form", "swap3-full", "--links", "L2a1"],
        ["invariant", "--link", "L2a1", "--quandle", "swap3", "--form", "swap3-full"],
        ["form-check", "swap3", "swap3-full"],
    ):
        del loads[:]
        assert run(capsys, *argv)[0] == 0
        assert len(loads) == 1, argv
    q = tmp_path / "swap3.quandle"
    q.write_text("quandle 3\n1 1 1\n2 2 2\n3 3 3\n")
    code, _, err = run(capsys, "batch", "--quandle", str(q), "--form", "swap3-full")
    assert code == 2
    assert err == "error: catalog form 'swap3-full' belongs to quandle 'swap3'\n"


@pytest.mark.parametrize(
    "form, message",
    [
        (f"form 1 1 {2**61 - 1}\nB 1 1\n0\n", "exceeds the largest supported, 1024"),
        ("form 1 2 1009\nB 1 1\n0 0\n0 0\n", "F_1009^2 has more than 1024 vectors"),
    ],
    ids=["19-digit-p", "p^n-1009^2"],
)
def test_oversized_fields_are_refused(tmp_path, capsys, form, message):
    q = tmp_path / "one.quandle"
    q.write_text("quandle 1\n1\n")
    f = tmp_path / "big.form"
    f.write_text(form)
    for argv in (
        ["form-check", str(q), str(f)],
        ["invariant", "--link", "L2a1", "--quandle", str(q), "--form", str(f)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


def test_form_search_refuses_oversized_fields(capsys):
    # F_2^40 used to overflow the space estimate's float formatting
    for p, n in ((2**61 - 1, 1), (2, 40), (1009, 2)):
        code, out, err = run(
            capsys, "form-search", "swap3", "--p", str(p), "--n", str(n), "--allow-large"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "1024" in err


# -- invariant ----------------------------------------------------------


def test_invariant_text(capsys):
    code, out, _ = run(
        capsys, "invariant", "--link", "L2a1", "--quandle", "swap3",
        "--form", "swap3-partial",
    )
    assert (code, out) == (0, "u^16 + 4u^10\n")


def test_invariant_json_matches_text(capsys):
    args = ["invariant", "--link", "L6a5", "--quandle", "swap3", "--form", "swap3-full"]
    code, text_out, _ = run(capsys, *args)
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    record = json.loads(json_out)
    assert render_invariant(record) == text_out


def test_invariant_from_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "invariant",
        "--link", str(DATA / "trefoil.diagram"),
        "--quandle", "swap3",
        "--form", "swap3-partial",
        "--engine", "both",
    )
    assert (code, out) == (0, "2u^10 + u^4\n")


def test_invariant_form_file_needs_quandle(tmp_path, capsys):
    form_path = catalog.catalog_root() / "forms" / "swap3-partial.form"
    local = tmp_path / "f.form"
    local.write_text(form_path.read_text())
    # a file-based form is validated against the given quandle; passing
    # a catalog quandle id still works
    code, out, _ = run(
        capsys, "invariant", "--link", "L2a1", "--quandle", "swap3",
        "--form", str(local),
    )
    assert (code, out) == (0, "u^16 + 4u^10\n")


# -- batch ---------------------------------------------------------------


def test_batch_full_catalog_matches_expected(capsys):
    code, out, _ = run(capsys, "batch", "--quandle", "swap3", "--form", "swap3-partial")
    assert code == 0
    assert "diff: none" in out
    assert out.splitlines()[0] == "u^16 + 4u^10: L2a1, L6a2, L7a6"


def test_batch_builds_tables_once_per_form(monkeypatch, capsys):
    """A batch counts every link on its one form's tables: one
    VectorTables, at most 2m^2 step tables built once each, and one
    weighted_orbits per distinct list of isometry generators."""
    vector_tables, bilinear, forms, searched, weighted = [], [], [], [], []
    init, table = VectorTables.__init__, VectorTables.bilinear_table
    isometries, orbits = VectorTables.isometries, forms_module.weighted_orbits
    compute = cli.compute_invariant

    def counted_init(self, field, n):
        vector_tables.append(self)
        init(self, field, n)

    def counted_table(self, B):
        bilinear.append(B)
        return table(self, B)

    def recorded(diagram, quandle, form, **kwargs):
        forms.append(form)
        return compute(diagram, quandle, form, **kwargs)

    def counted_isometries(self, tables, cap):
        generators = isometries(self, tables, cap)
        searched.append(tuple(map(tuple, generators)))
        return generators

    def counted_orbits(generators, size):
        weighted.append(tuple(map(tuple, generators)))
        return orbits(generators, size)

    monkeypatch.setattr(VectorTables, "__init__", counted_init)
    monkeypatch.setattr(VectorTables, "bilinear_table", counted_table)
    monkeypatch.setattr(VectorTables, "isometries", counted_isometries)
    monkeypatch.setattr(forms_module, "weighted_orbits", counted_orbits)
    monkeypatch.setattr(cli, "compute_invariant", recorded)
    for name in ("swap3-partial", "swap3-full"):
        del vector_tables[:], bilinear[:], forms[:], searched[:], weighted[:]
        code, out, _ = run(capsys, "batch", "--quandle", "swap3", "--form", name)
        # every link's polynomial is the shipped expected one
        assert code == 0 and out.endswith("diff: none\n")
        # one weighted_orbits per distinct generator list of the
        # isometry searches: at p^n = 4 every id set has the same
        assert searched and sorted(weighted) == sorted(set(searched))
        assert len(weighted) == 1
        form = forms[0]
        assert len(forms) == len(catalog.list_links())
        assert all(f is form for f in forms)
        assert vector_tables == [form.vector_tables]
        m = form.quandle.order
        # validation builds one bilinear table per distinct block, and
        # the form one more, which its step tables and isometries share
        distinct = {B for row in form.blocks for B in row}
        # one (forward, inverse) pair per block read and crossing sign
        assert 0 < len(form.step_pairs) <= 2 * len(distinct)
        assert len(bilinear) == 2 * len(distinct)


def without_elapsed(record):
    if isinstance(record, dict):
        return {k: without_elapsed(v) for k, v in record.items() if k != "elapsed"}
    if isinstance(record, list):
        return [without_elapsed(v) for v in record]
    return record


def test_calls_in_one_process_print_what_fresh_calls_print(capsys):
    """main reuses one parser per process; nothing from one call, such
    as --links or --format, carries into the next."""
    calls = [
        ["batch", "--quandle", "swap3", "--form", "swap3-partial", "--links", "L2a1",
         "--format", "json"],
        ["batch", "--quandle", "swap3", "--form", "swap3-partial"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, (code, out, _) in zip(calls, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "qbeads.cli", *argv], capture_output=True, text=True, env=env
        )
        assert code == fresh.returncode == 0
        if "json" in argv:
            assert without_elapsed(json.loads(out)) == without_elapsed(json.loads(fresh.stdout))
        else:
            assert out == fresh.stdout
    assert json.loads(in_process[0][1])["links"] == ["L2a1"]
    assert len(in_process[1][1].splitlines()) > 2


def test_batch_subset_and_json(capsys):
    args = ["batch", "--quandle", "swap3", "--form", "swap3-full",
            "--links", "L2a1,L6a3"]
    code, text_out, _ = run(capsys, *args)
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    record = json.loads(json_out)
    assert record["links"] == ["L2a1", "L6a3"]
    assert render_batch(record) == text_out


def test_batch_unknown_subset(capsys):
    code, _, err = run(
        capsys, "batch", "--quandle", "swap3", "--form", "swap3-partial",
        "--links", "L2a1,L99x9",
    )
    assert code == 2


@pytest.mark.parametrize("links", [",", " "])
def test_batch_empty_subset(capsys, links):
    code, out, err = run(
        capsys, "batch", "--quandle", "swap3", "--form", "swap3-partial",
        "--links", links,
    )
    assert code == 2
    assert out == ""
    assert "names no link" in err


def test_invariant_rejects_a_huge_arc_count(tmp_path, capsys):
    # one arc listed of 10^11: one bounded error, not one per missing arc
    path = tmp_path / "huge.diagram"
    path.write_text("link a\narcs 99999999999\ncomponent 1\n")
    code, out, err = run(
        capsys, "invariant", "--link", str(path), "--quandle", "swap3",
        "--form", "swap3-full",
    )
    assert code == 2
    assert out == ""
    assert "99999999998 of the 99999999999 arcs belong to no component" in err
    assert len(err) < 300


def test_batch_detects_mismatch(tmp_path, monkeypatch, capsys):
    shutil.copytree(catalog.catalog_root(), tmp_path / "cat")
    expected = tmp_path / "cat" / "expected" / "swap3-partial.json"
    data = json.loads(expected.read_text())
    data["expected"]["L2a1"] = [[3, 5]]
    expected.write_text(json.dumps(data))
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path / "cat"))
    code, out, _ = run(
        capsys, "batch", "--quandle", "swap3", "--form", "swap3-partial",
        "--links", "L2a1",
    )
    assert code == 1
    assert "diff L2a1" in out
    assert "computed u^16 + 4u^10" in out


def test_batch_lists_links_as_catalog_list_does(tmp_path, monkeypatch, capsys):
    root = tmp_path / "cat"
    shutil.copytree(catalog.catalog_root(), root)
    links = root / "links"
    shutil.rmtree(links)
    links.mkdir()
    # "a" sorts before "a-b", but "a-b.diagram" before "a.diagram"
    for name, source in (("a", "L2a1"), ("a-b", "L4a1")):
        shutil.copy(catalog.catalog_root() / "links" / f"{source}.diagram", links / f"{name}.diagram")
    (links / "README.txt").write_text("not a diagram\n")
    (links / ".a.diagram.swp").write_bytes(b"\xff")
    monkeypatch.setenv(catalog.CATALOG_ENV, str(root))
    _, out, _ = run(capsys, "catalog-list", "--format", "json")
    assert json.loads(out)["links"] == ["a", "a-b"]
    code, out, _ = run(
        capsys, "batch", "--quandle", "swap3", "--form", "swap3-full", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["links"] == ["a", "a-b"]
    assert [r["link"] for r in record["results"]] == ["a", "a-b"]
    alone = []
    for name in record["links"]:
        _, out, _ = run(
            capsys, "invariant", "--link", name, "--quandle", "swap3",
            "--form", "swap3-full", "--format", "json",
        )
        alone.append(json.loads(out)["terms"])
    assert [r["terms"] for r in record["results"]] == alone
    assert alone[0] != alone[1]


def test_batch_file_form_has_no_expectations(tmp_path, capsys):
    local = tmp_path / "f.form"
    local.write_text(
        (catalog.catalog_root() / "forms" / "swap3-zero.form").read_text()
    )
    code, out, _ = run(
        capsys, "batch", "--quandle", "swap3", "--form", str(local),
        "--links", "L2a1",
    )
    assert code == 0
    assert "diff" not in out


# -- form-search ----------------------------------------------------------


def test_form_search_text_and_json(capsys):
    args = ["form-search", "swap3", "--p", "2", "--n", "2", "--allow-large"]
    code, text_out, _ = run(capsys, *args)
    assert code == 0
    assert "found 7 form(s)" in text_out
    assert text_out.rstrip().endswith("complete")
    code, json_out, _ = run(capsys, *args, "--format", "json")
    record = json.loads(json_out)
    assert record["count"] == 7
    assert record["complete"] is True
    assert record["space_estimate"] == 16
    assert render_search(record) == text_out


def test_form_search_needs_no_allow_large_for_a_small_search(capsys):
    code, out, _ = run(capsys, "form-search", "swap3", "--p", "2", "--n", "2")
    assert code == 0
    assert "found 7 form(s)" in out


def test_form_search_space_guard(capsys, tmp_path):
    trivial = tmp_path / "trivial6.quandle"
    trivial.write_text(format_quandle(trivial_quandle(6)))
    code, out, err = run(capsys, "form-search", str(trivial), "--p", "3", "--n", "3")
    assert (code, out) == (2, "")
    assert "--allow-large" in err


def test_form_search_estimate_past_float_range(capsys, tmp_path):
    trivial = tmp_path / "trivial40.quandle"
    trivial.write_text(format_quandle(trivial_quandle(40)))
    code, out, err = run(capsys, "form-search", str(trivial), "--p", "2", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: search space estimate 4.45e+481 exceeds")
    assert "Traceback" not in err


def test_form_search_limit_on_a_huge_slot(capsys, tmp_path):
    # one slot of 2^28 alternating matrices: under the guard, and the
    # first form needs none of the others
    one = tmp_path / "trivial1.quandle"
    one.write_text(format_quandle(trivial_quandle(1)))
    args = ["form-search", str(one), "--p", "2", "--n", "8", "--limit", "1", "--format", "json"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    record = json.loads(out)
    assert (record["count"], record["complete"], record["space_estimate"]) == (1, False, 2**28)


def test_form_search_bad_budget(capsys):
    code, _, err = run(
        capsys, "form-search", "swap3", "--p", "2", "--n", "1", "--budget", "-1"
    )
    assert code == 2


def test_form_search_nan_budget(capsys):
    code, out, err = run(
        capsys, "form-search", "swap3", "--p", "2", "--n", "1", "--budget", "nan", "--allow-large"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: time budget must be a positive number")


def test_form_search_negative_dimension(capsys):
    code, out, err = run(capsys, "form-search", "swap3", "--p", "2", "--n", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


# -- unreadable files -------------------------------------------------------

# argv with BAD for a file that is not UTF-8, and the catalog file, if
# any, that is replaced by one; every subcommand that reads a file
UNDECODABLE = [
    (["quandle-check", "BAD"], None),
    (["form-check", "swap3", "BAD"], None),
    (["form-check", "BAD", "swap3-full"], None),
    (["form-search", "BAD", "--p", "2", "--n", "2"], None),
    (["invariant", "--link", "BAD", "--quandle", "swap3", "--form", "swap3-full"], None),
    (["invariant", "--link", "L2a1", "--quandle", "swap3", "--form", "BAD"], None),
    (["batch", "--quandle", "swap3", "--form", "BAD"], None),
    (["batch", "--quandle", "swap3", "--form", "swap3-full"], "forms/swap3-full.form"),
    (["batch", "--quandle", "swap3", "--form", "swap3-full"], "expected/swap3-full.json"),
    (["invariant", "--link", "L2a1", "--quandle", "swap3", "--form", "swap3-full"], "links/L2a1.diagram"),
    (["invariant", "--link", "L2a1", "--quandle", "swap3", "--form", "swap3-full"], "quandles/swap3.quandle"),
]


@pytest.mark.parametrize("argv, replaced", UNDECODABLE)
def test_undecodable_files_are_input_errors(tmp_path, argv, replaced):
    """A file that is not UTF-8 exits 2 with its path named and no
    traceback, in a fresh process as a user runs it."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"quandle 1\n\xff")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    if replaced is not None:
        shutil.copytree(catalog.catalog_root(), tmp_path / "cat")
        bad = tmp_path / "cat" / replaced
        bad.write_bytes(bad.read_bytes() + b"\xff")
        env[catalog.CATALOG_ENV] = str(tmp_path / "cat")
    argv = [str(bad) if token == "BAD" else token for token in argv]
    run = subprocess.run([sys.executable, "-m", "qbeads.cli", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == 2, run.stderr
    assert run.stderr == f"error: {bad} is not UTF-8 text: invalid start byte at byte {bad.stat().st_size - 1}\n"
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("content", ["{", "[]", '{"expected": {"L2a1": 5}}', '{"other": {}}'])
def test_a_corrupt_expected_table_is_an_input_error(tmp_path, monkeypatch, capsys, content):
    shutil.copytree(catalog.catalog_root(), tmp_path / "cat")
    expected = tmp_path / "cat" / "expected" / "swap3-full.json"
    expected.write_text(content)
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path / "cat"))
    code, _, err = run(capsys, "batch", "--quandle", "swap3", "--form", "swap3-full", "--links", "L2a1")
    assert code == 2
    assert err.startswith(f"error: expected file {expected} is not a table of term lists")


def test_an_unreadable_path_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "invariant", "--link", "L2a1", "--quandle", "swap3", "--form", str(tmp_path / "missing"))
    assert code == 2
    (tmp_path / "dir.form").mkdir()
    with pytest.raises(InputError, match="cannot read .*dir.form"):
        read_text(tmp_path / "dir.form")


# -- catalog-list -----------------------------------------------------------


def test_catalog_list(capsys):
    code, text_out, _ = run(capsys, "catalog-list")
    assert code == 0
    assert text_out.startswith("links: L2a1 L4a1")
    code, json_out, _ = run(capsys, "catalog-list", "--format", "json")
    record = json.loads(json_out)
    assert render_catalog_list(record) == text_out
    assert record["quandles"] == ["swap3"]


def test_render_check_shape():
    assert render_check({"valid": True, "violations": []}) == "valid\n"
    out = render_check({"valid": False, "violations": ["a", "b"]})
    assert out.splitlines() == ["invalid: 2 violation(s)", "a", "b"]


# -- the JSON writer --------------------------------------------------------

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(lambda i: i * 10**30),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001f600\ud800a')),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_writer_writes_what_json_dumps_writes(value):
    assert cli.to_json(value) == json.dumps(value, indent=2, sort_keys=True)
