"""Command-line behavior: outputs, exit codes, file handling, determinism."""

import concurrent.futures
import json
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conjlab import cli, corpus, theorem
from conjlab.cli import EXIT_COUNTEREXAMPLE, EXIT_ERROR, EXIT_OK, main
from conjlab.corpus import build, parse_spec
from conjlab.group import ClassTable, Group


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----- analyze -----------------------------------------------------------------


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", "symmetric:4")
    assert code == EXIT_OK
    assert "order 24" in out
    assert "separated  True" in out
    assert "pattern mixed" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "symmetric:4", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["order"] == 24
    assert data["n_of_g"]["sizes"] == [1, 3, 6, 8]
    assert data["gamma_components"] == [[3, 6], [8]]
    assert data["p_part_patterns"]["2"]["kind"] == "mixed"


def test_analyze_grp_file(tmp_path, capsys):
    path = tmp_path / "pent.grp"
    path.write_text("degree 5\nname pent\n(0 1 2 3 4)\n(1 4)(2 3)\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == EXIT_OK and "order 10" in out


def test_analyze_bad_spec(capsys):
    code, _, err = run(capsys, "analyze", "martian:9")
    assert code == EXIT_ERROR
    assert "error:" in err


# ----- verify ------------------------------------------------------------------


def test_verify_negative_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "symmetric:4", "--no-lemmas")
    assert code == EXIT_OK
    assert "verdict HypothesisNotMet" in out


def test_verify_positive_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "direct:frobenius:5,4+heisenberg:3",
        "--json",
        "--out",
        str(out_path),
        "--lemma-samples",
        "100",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["verdict"] == "VerifiedDecomposition"
    assert data["decompositions"][0]["a_order"] == 20
    assert json.loads(out_path.read_text()) == data
    assert all(r["status"] == "pass" for r in data["lemma_results"].values())


def test_verify_no_lemmas_empty_results(capsys):
    code, out, _ = run(capsys, "verify", "cyclic:9", "--json", "--no-lemmas")
    data = json.loads(out)
    assert code == EXIT_OK and data["lemma_results"] == {}


def test_verify_budget_exit(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "direct:frobenius:5,4+heisenberg:3",
        "--normal-budget",
        "3",
        "--no-lemmas",
    )
    assert code == EXIT_ERROR and "budget" in err.lower()
    assert "2 of 54 classes closed" in err


def test_verify_lemma_budget_stop_is_skipped_not_an_error(capsys):
    # the lemmas that read the lattice report skipped; the verdict needs none
    code, out, _ = run(capsys, "verify", "symmetric:5", "--normal-budget", "3")
    assert code == EXIT_OK
    assert sum(line.endswith(": skipped (0 cases, exhaustive)") for line in out.splitlines()) == 6
    assert "verdict HypothesisNotMet" in out


def test_a_series_level_out_of_budget_is_named_in_the_skipped_lemmas(capsys):
    # the lattice of G fits 24 nodes, but the search at the series level of
    # order 31 does not; both lemmas that read the series say which level
    code, out, _ = run(
        capsys, "verify", "frobenius:31,6", "--normal-budget", "24", "--lemma-samples", "300", "--json"
    )
    assert code == EXIT_OK
    results = json.loads(out)["lemma_results"]
    want = (
        "normal_subgroups(frobenius:31,6|sub93|sub31): budget of 24 nodes exhausted; "
        "24 of 30 classes closed, 2 normal subgroups found"
    )
    for name in ("series_class_divisibility", "single_nonabelian_factor"):
        assert results[name]["status"] == "skipped" and results[name]["detail"] == want


def test_verify_cap_flag_and_env(capsys, monkeypatch):
    monkeypatch.setenv("CONJLAB_CAP", "10")
    code, _, err = run(capsys, "verify", "symmetric:4", "--no-lemmas")
    assert code == EXIT_ERROR
    code, out, _ = run(
        capsys, "verify", "symmetric:4", "--no-lemmas", "--cap", "100"
    )
    assert code == EXIT_OK
    monkeypatch.setenv("CONJLAB_CAP", "banana")
    code, _, err = run(capsys, "verify", "symmetric:4", "--no-lemmas")
    assert code == EXIT_ERROR


# ----- gamma -------------------------------------------------------------------


def test_gamma_components(capsys):
    code, out, _ = run(capsys, "gamma", "--set", "3,6,8")
    assert code == EXIT_OK and out == "components: 2\n"


def test_gamma_json_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "gamma", "--set", "12,15,20", "--json", "--dot", str(dot))
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["count"] == 3 and data["edges"] == []
    text = dot.read_text()
    assert text.startswith("digraph gamma {") and "12" in text


def test_gamma_rejects_garbage(capsys):
    code, _, err = run(capsys, "gamma", "--set", "3,six,8")
    assert code == EXIT_ERROR and "error:" in err


# ----- scan --------------------------------------------------------------------


def write_dir_corpus(tmp_path):
    (tmp_path / "b_dihedral.grp").write_text(
        "degree 5\nname pentagon\n(0 1 2 3 4)\n(1 4)(2 3)\n"
    )
    (tmp_path / "a_cyclic.grp").write_text("degree 6\nname hexagon\n(0 1 2 3 4 5)\n")
    return tmp_path


def test_scan_directory_corpus(tmp_path, capsys):
    corpus = write_dir_corpus(tmp_path)
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(
        capsys,
        "scan",
        "--corpus",
        str(corpus),
        "--out",
        str(out_path),
        "--lemma-samples",
        "50",
    )
    assert code == EXIT_OK
    assert "scanned 2 groups" in out
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    # sorted by spec string: a_cyclic before b_dihedral
    assert records[0]["spec"].endswith("a_cyclic.grp")
    assert all(r["report"]["verdict"] == "HypothesisNotMet" for r in records)
    assert all(r["timestamp"] == "1970-01-01T00:00:00Z" for r in records)
    assert all(r["report"]["timings"] == {} for r in records)


def test_scan_jobs_agree(tmp_path, capsys):
    corpus = write_dir_corpus(tmp_path)
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    for out_path, jobs in [(one, "1"), (two, "2")]:
        code, _, _ = run(
            capsys,
            "scan",
            "--corpus",
            str(corpus),
            "--out",
            str(out_path),
            "--jobs",
            jobs,
            "--seed",
            "5",
            "--lemma-samples",
            "50",
        )
        assert code == EXIT_OK
    assert one.read_bytes() == two.read_bytes()


GOLDEN_SCAN = Path(__file__).parent / "data" / "builtin_scan_samples300.jsonl"


def test_builtin_scan_matches_recorded_bytes(tmp_path, capsys):
    # recorded with `conjlab scan --corpus builtin --lemma-samples 300 --jobs 1`;
    # any change to an answer, a generator choice or a lemma draw moves these bytes
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run(
        capsys,
        "scan",
        "--corpus",
        "builtin",
        "--out",
        str(out_path),
        "--lemma-samples",
        "300",
        "--jobs",
        "1",
    )
    assert code == EXIT_OK
    assert out_path.read_bytes() == GOLDEN_SCAN.read_bytes()


def test_scan_records_per_group_errors(tmp_path, capsys):
    corpus = write_dir_corpus(tmp_path)
    (corpus / "c_big.grp").write_text("degree 5\nname whole\n(0 1)\n(0 1 2 3 4)\n")
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(
        capsys,
        "scan",
        "--corpus",
        str(corpus),
        "--out",
        str(out_path),
        "--cap",
        "30",
        "--no-lemmas",
    )
    assert code == EXIT_OK  # scan itself succeeds; the failure is recorded
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    bad = next(r for r in records if r["spec"].endswith("c_big.grp"))
    assert bad["report"] is None and "CapExceeded" in bad["error"]
    assert "error=1" in out


def test_scan_records_a_grp_file_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.grp").write_bytes(b"\xff\xfe")
    (corpus / "s3.grp").write_text("degree 3\nname s3\n(0 1)\n(0 1 2)\n")
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(capsys, "scan", "--corpus", str(corpus), "--out", str(out_path), "--no-lemmas")
    assert code == EXIT_OK  # as for any other recorded build error
    bad, good = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert bad["report"] is None and bad["error"].startswith("GrpFormatError: ")
    assert str(corpus / "bad.grp") in bad["error"]
    assert good["report"]["group_order"] == 6
    assert "error=1" in out


@pytest.mark.parametrize("entry", ["directory", "dangling-symlink"])
def test_scan_records_a_grp_entry_that_cannot_be_read(tmp_path, capsys, entry):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a.grp", "c.grp"):
        (corpus / name).write_text("degree 3\nname s3\n(0 1)\n(0 1 2)\n")
    if entry == "directory":
        (corpus / "b.grp").mkdir()
    else:
        (corpus / "b.grp").symlink_to(tmp_path / "missing.grp")
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--corpus", str(corpus), "--out", str(out_path), "--no-lemmas")
    assert code == EXIT_OK and err == ""  # the scan goes on past b.grp
    a, b, c = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert a["report"]["group_order"] == c["report"]["group_order"] == 6
    assert b["report"] is None and str(corpus / "b.grp") in b["error"]
    assert b["error"].startswith(("IsADirectoryError: ", "FileNotFoundError: "))
    assert "error=1" in out


def test_scan_starts_no_more_workers_than_groups(tmp_path, capsys, monkeypatch):
    # a stand-in pool records max_workers and maps in-process: no worker starts
    made = []

    class InlinePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    corpus = write_dir_corpus(tmp_path)
    outs = [run(capsys, "scan", "--corpus", str(corpus), "--jobs", jobs) for jobs in ("1", "2", "64")]
    assert made == [2, 2]
    assert outs[0] == outs[1] == outs[2] and outs[0][0] == EXIT_OK


def test_interrupted_scan_leaves_a_prefix_of_the_full_output(tmp_path, capsys, monkeypatch):
    real = cli._scan_one
    seen = []

    def interrupted(task):
        seen.append(task[0])
        if len(seen) == 5:
            raise KeyboardInterrupt
        return real(task)

    monkeypatch.setattr(cli, "_scan_one", interrupted)
    out_path = tmp_path / "scan.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(["scan", "--corpus", "builtin", "--out", str(out_path), "--lemma-samples", "300", "--jobs", "1"])
    first_four = b"".join(GOLDEN_SCAN.read_bytes().splitlines(keepends=True)[:4])
    assert out_path.read_bytes() == first_four


def test_scan_unwritable_out_fails_before_any_build(tmp_path, capsys, monkeypatch):
    built = []
    real = cli.build

    def counting(spec, cap=None):
        built.append(spec.name)
        return real(spec, cap=cap)

    monkeypatch.setattr(cli, "build", counting)
    out_path = tmp_path / "missing" / "deep.jsonl"
    code, out, err = run(capsys, "scan", "--corpus", "builtin", "--out", str(out_path))
    assert (code, out, built) == (EXIT_ERROR, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["analyze", "cyclic:4"], ["verify", "cyclic:4", "--no-lemmas"]])
def test_unwritable_out_fails_before_any_build(tmp_path, capsys, monkeypatch, argv):
    built = []
    monkeypatch.setattr(cli, "build", lambda spec, cap=None: built.append(spec.name))
    out_path = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out, built) == (EXIT_ERROR, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_keeps_its_records_when_the_pool_dies(tmp_path, capsys, monkeypatch):
    # a stand-in pool yields the first record, then fails as a killed worker would
    class DyingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            yield fn(next(iter(items)))
            raise BrokenProcessPool("a process in the pool was terminated abruptly")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    corpus = write_dir_corpus(tmp_path)
    out_path = tmp_path / "scan.jsonl"
    argv = ["scan", "--corpus", str(corpus), "--no-lemmas", "--out", str(out_path)]
    code, out, err = run(capsys, *argv, "--jobs", "2")
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: worker pool died after 1 of 2 records were written")
    assert err.count("\n") == 1
    partial = out_path.read_bytes()
    assert run(capsys, *argv, "--jobs", "1")[0] == EXIT_OK
    assert out_path.read_bytes().splitlines(keepends=True)[0] == partial


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # only scan --jobs above 1 imports the pool's modules
    code = "import sys, conjlab.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_verify_and_scan_leave_numpy_ma_unimported():
    # np.unique and np.intersect1d, unless told the input is unique or asked
    # for an index array, import numpy.ma on their first call in a process
    code = (
        "import contextlib, io, sys\n"
        "from conjlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', 'direct:frobenius:5,4+heisenberg:3']),\n"
        "             main(['scan', '--corpus', 'builtin', '--no-lemmas'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[0, 0] False\n"


def _run_out_of_memory_on(monkeypatch, name):
    real = cli.build

    def build(spec, cap=None):
        if spec.name.endswith(name):
            raise MemoryError("Unable to allocate 40.0 GiB for an array")
        return real(spec, cap=cap)

    monkeypatch.setattr(cli, "build", build)


def test_scan_records_a_memory_error_and_goes_on(tmp_path, capsys, monkeypatch):
    _run_out_of_memory_on(monkeypatch, "b_dihedral.grp")
    corpus = write_dir_corpus(tmp_path)
    code, out, err = run(capsys, "scan", "--corpus", str(corpus), "--no-lemmas")
    assert code == EXIT_OK and err == ""
    first, second = [json.loads(line) for line in out.splitlines()]
    assert first["report"]["verdict"] == "HypothesisNotMet"
    assert second["report"] is None
    assert second["error"] == "MemoryError: Unable to allocate 40.0 GiB for an array"


def test_verify_memory_error_exits_two_without_traceback(capsys, monkeypatch):
    _run_out_of_memory_on(monkeypatch, "symmetric:4")
    code, out, err = run(capsys, "verify", "symmetric:4")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: Unable to allocate 40.0 GiB for an array\n"


def _break_class_sizes(monkeypatch):
    # order-24 groups get class sizes that do not divide the group order
    table = Group.class_table

    def broken(self):
        ids, reps, sizes = table(self)
        return ClassTable(ids, reps, sizes + (self.order == 24))

    monkeypatch.setattr(Group, "class_table", broken)


def _break_centralizers(monkeypatch):
    # order-24 groups lose the identity from every centralizer
    mask = Group.centralizer_mask_idx

    def broken(self, i):
        got = mask(self, i).copy()
        got[0] = self.order != 24
        return got

    monkeypatch.setattr(Group, "centralizer_mask_idx", broken)


@pytest.mark.parametrize("breaks", [_break_class_sizes, _break_centralizers])
def test_engine_faults_keep_the_exit_contract(tmp_path, capsys, monkeypatch, breaks):
    breaks(monkeypatch)
    code, out, err = run(capsys, "verify", "symmetric:4", "--lemma-samples", "50")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    corpus = write_dir_corpus(tmp_path)
    (corpus / "c_s4.grp").write_text("degree 4\nname s4\n(0 1)\n(0 1 2 3)\n")
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(
        capsys, "scan", "--corpus", str(corpus), "--out", str(out_path), "--lemma-samples", "50"
    )
    assert code == EXIT_ERROR  # every group is still scanned and recorded
    assert err == "error: engine fault recorded for 1 group(s)\n"
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["report"] is None for r in records] == [False, False, True]
    assert records[2]["error"].startswith("EngineFault: ")


def test_composite_n_in_a_decomposition_is_a_counterexample(capsys, monkeypatch):
    # the paper proves that n is a prime power wherever G decomposes
    monkeypatch.setattr(theorem, "prime_divisors", lambda n: [2, 3])
    code, out, err = run(capsys, "verify", "direct:frobenius:5,4+heisenberg:3", "--no-lemmas")
    assert code == EXIT_COUNTEREXAMPLE and err == ""
    assert "decomposition |A|=20 N(A)=[1, 4, 5] |B|=27 N(B)=[1, 3]\n" in out
    assert out.endswith("verdict COUNTEREXAMPLE\n")


def test_scan_with_a_counterexample_record_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(theorem, "prime_divisors", lambda n: [2, 3])
    corpus = write_dir_corpus(tmp_path)
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    gens = "\n".join(p.cycle_string() for p in g.generators)
    (corpus / "c_product.grp").write_text(f"degree {g.degree}\nname product\n{gens}\n")
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", "--corpus", str(corpus), "--out", str(out_path), "--no-lemmas")
    assert code == EXIT_COUNTEREXAMPLE and err == ""  # every group is still scanned and recorded
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["report"]["verdict"] for r in records] == [
        "HypothesisNotMet",
        "HypothesisNotMet",
        "COUNTEREXAMPLE",
    ]
    assert "COUNTEREXAMPLE=1" in out


def test_scan_rejects_bad_corpus(tmp_path, capsys):
    code, _, err = run(capsys, "scan", "--corpus", str(tmp_path / "nowhere"))
    assert code == EXIT_ERROR and "error:" in err


def test_scan_rejects_bad_jobs(tmp_path, capsys):
    corpus = write_dir_corpus(tmp_path)
    code, _, err = run(capsys, "scan", "--corpus", str(corpus), "--jobs", "0")
    assert code == EXIT_ERROR


def test_scan_unwritable_out(tmp_path, capsys):
    corpus = write_dir_corpus(tmp_path)
    code, _, err = run(
        capsys,
        "scan",
        "--corpus",
        str(corpus),
        "--out",
        str(tmp_path / "missing" / "deep.jsonl"),
        "--no-lemmas",
    )
    assert code == EXIT_ERROR and "error:" in err


# ----- top level ----------------------------------------------------------------


def test_usage_errors(capsys):
    assert main([]) == EXIT_ERROR
    assert main(["analyze"]) == EXIT_ERROR
    assert main(["frobnicate"]) == EXIT_ERROR
    capsys.readouterr()


def test_scan_has_no_json_flag(capsys):
    # scan always writes JSONL; a --json flag would be accepted and ignored
    code, _, err = run(capsys, "scan", "--json")
    assert code == EXIT_ERROR and "unrecognized arguments: --json" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cyclic:4", "--lemma-samples", "0"],
        ["scan", "--corpus", "builtin", "--lemma-samples", "0"],
        ["gamma", "--set", "0,3"],
        ["verify", "cyclic:4", "--normal-budget", "-5"],
        ["analyze", "cyclic:4", "--cap", "0"],
        ["scan", "--corpus", "builtin", "--cap", "-3"],
        ["analyze", "cyclic:99999999999999999999999"],
        ["analyze", "cyclic:200000"],
        ["analyze", "dihedral:100000"],
        ["analyze", "heisenberg:1000000000000000003"],
        ["analyze", "cyclic:100000"],
        ["analyze", "cyclic:8000"],
        ["analyze", "direct:heisenberg:13+cyclic:40"],
        ["analyze", "big.grp"],
        ["analyze", "groups/missing.grp"],
        ["analyze", "latin1.grp"],
    ],
    ids=[
        "verify-samples",
        "scan-samples",
        "gamma-zero",
        "negative-budget",
        "zero-cap",
        "negative-cap-scan",
        "huge-cyclic",
        "over-cap-cyclic",
        "over-cap-dihedral",
        "huge-prime-heisenberg",
        "over-cell-limit-cyclic",
        "just-over-cell-limit-cyclic",
        "over-cell-limit-product",
        "over-cell-limit-grp",
        "missing-grp",
        "not-utf8-grp",
    ],
)
def test_bad_values_exit_two_with_one_error_line(capsys, tmp_path, argv):
    if argv[-1] == "big.grp":
        # within the element cap, but 60000 x 60000 table cells
        cycle = " ".join(map(str, range(60000)))
        argv = ["analyze", str(tmp_path / "big.grp")]
        Path(argv[-1]).write_text(f"degree 60000\nname big\n({cycle})\n")
    if argv[-1] == "latin1.grp":
        argv = ["analyze", str(tmp_path / "latin1.grp")]
        Path(argv[-1]).write_bytes(b"\xff\xfe")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    # each value is refused before any group is built or primality tested,
    # or once enumeration reaches the cell limit
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_ERROR
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err
    if argv[-1].endswith(("groups/missing.grp", "latin1.grp")):
        assert argv[-1] in err  # the read names the file


@pytest.mark.parametrize("spec", ["cyclic:100000", "direct:heisenberg:13+cyclic:40"])
def test_over_cell_limit_is_refused_before_enumeration(capsys, monkeypatch, spec):
    # order x degree is known once the generator functions return the degree
    def build_nothing(*args, **kwargs):
        raise AssertionError("a table was built")

    families = {kind: f._replace(table=build_nothing) for kind, f in corpus._FAMILIES.items()}
    monkeypatch.setattr(corpus, "_FAMILIES", families)
    code, out, err = run(capsys, "analyze", spec)
    assert code == EXIT_ERROR and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "cell limit" in line


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


# ----- any argv --------------------------------------------------------------------

# family parameters reach far past any cap; a heisenberg or frobenius prime
# above 2**32 is refused before its trial-division primality check
_small = st.integers(1, 12)
_family = st.one_of(
    st.builds(
        "{}:{}".format,
        st.sampled_from(["cyclic", "dihedral", "symmetric", "alternating"]),
        st.one_of(_small, st.integers(-2, 10**25)),
    ),
    st.builds("heisenberg:{}".format, st.one_of(st.just(3), st.integers(-2, 10**25))),
    st.builds(
        "frobenius:{},{}".format,
        st.one_of(_small, st.integers(-2, 10**25)),
        st.one_of(_small, st.integers(-2, 10**25)),
    ),
    st.sampled_from(["martian:9", "cyclic:", "cyclic:x", "", "direct:", "file:", "no.grp"]),
)
_spec = st.one_of(
    _family, st.lists(_family, min_size=2, max_size=3).map(lambda ps: "direct:" + "+".join(ps))
)
_number = st.one_of(st.integers(1, 40).map(str), st.sampled_from(["0", "-3", "x", "", "1e3"]))


def _flag(name: str, value=None):
    token = st.just([name]) if value is None else value.map(lambda v: [name, v])
    return st.one_of(st.just([]), token)


def _argv(command: str, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [t for p in ps for t in p])


_common = (_flag("--cap", st.integers(-2, 16).map(str)), _flag("--normal-budget", _number))
_lemma_flags = (_flag("--no-lemmas"), _flag("--seed", _number), _flag("--lemma-samples", _number))
_any_argv = st.one_of(
    _argv("analyze", _spec.map(lambda s: [s]), _flag("--json"), *_common),
    _argv(
        "verify",
        _spec.map(lambda s: [s]),
        _flag("--json"),
        _flag("--all-pairs"),
        *_lemma_flags,
        *_common,
    ),
    _argv(
        "scan",
        _flag("--corpus", st.sampled_from(["builtin", "nowhere"])),
        # at most one job, so no draw starts worker processes
        _flag("--jobs", st.sampled_from(["-1", "0", "1", "x"])),
        *_lemma_flags,
        *_common,
    ),
    _argv("gamma", _flag("--set", st.lists(_number, max_size=4).map(",".join)), _flag("--json")),
    st.lists(
        st.sampled_from(["analyze", "verify", "scan", "gamma", "--json", "cyclic:3", "-h"]),
        max_size=3,
    ),
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=_any_argv)
def test_any_argv_exits_with_a_contract_code(capsys, monkeypatch, argv):
    # a small default cap keeps every group that does get built tiny
    monkeypatch.setenv("CONJLAB_CAP", "12")
    code, _, err = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_COUNTEREXAMPLE)
    assert "Traceback" not in err
