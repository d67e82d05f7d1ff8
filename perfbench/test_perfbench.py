"""Tests of the benchmark's own checkers and span recorder.

    python3 -m pytest perfbench -q

Each checker must accept the engine's real answer and reject a copy with
one deliberate fault.
"""

import copy
import gc
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import closedform as cf  # noqa: E402
import conjlab  # noqa: E402
import tracing  # noqa: E402
from workloads import ClassSizes, ScanBuiltin  # noqa: E402

SMALL_SPECS = (
    "cyclic:12",
    "dihedral:7",
    "dihedral:8",
    "symmetric:4",
    "alternating:4",
    "alternating:5",
    "heisenberg:3",
    "frobenius:7,3",
    "direct:frobenius:5,4+cyclic:3",
)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_closed_forms_match_the_oracle(spec):
    assert cf.size_multiplicities(cf.class_list(spec)) == checks.oracle_class_sizes(spec)
    assert sum(s * c for s, c in cf.size_multiplicities(cf.class_list(spec)).items()) == cf.group_order(spec)


def test_closed_form_landau_and_dihedral_orders():
    assert max(cf.element_orders(cf.class_list("symmetric:8"))) == 15
    assert max(cf.element_orders(cf.class_list("dihedral:500"))) == 500
    assert cf.size_multiplicities(cf.class_list("heisenberg:13")) == {1: 13, 13: 168}


@pytest.fixture(scope="module")
def analyze_answer():
    return ClassSizes.call("dihedral:12", traced=False)


def test_class_size_answer_accepted(analyze_answer):
    assert checks.check_class_size_answer("dihedral:12", analyze_answer) == []


def test_changed_class_size_rejected(analyze_answer):
    bad = copy.deepcopy(analyze_answer)
    bad["multiplicities"][-1][0] += 1
    assert checks.check_class_size_answer("dihedral:12", bad)


def test_wrong_order_rejected(analyze_answer):
    bad = dict(analyze_answer, order=analyze_answer["order"] + 2)
    assert checks.check_class_size_answer("dihedral:12", bad)


def test_wrong_element_order_rejected(analyze_answer):
    bad = dict(analyze_answer, element_orders=analyze_answer["element_orders"][:-1])
    assert checks.check_class_size_answer("dihedral:12", bad)


def test_flipped_p_pattern_rejected(analyze_answer):
    bad = copy.deepcopy(analyze_answer)
    kind, exponent, parts = bad["patterns"][2]
    assert kind == "uniform_active"
    bad["patterns"][2] = ("uniform_inert", exponent, parts)
    assert checks.check_class_size_answer("dihedral:12", bad)


def test_wrong_max_part_and_components_rejected(analyze_answer):
    bad = copy.deepcopy(analyze_answer)
    bad["max_parts"][3] *= 3
    assert checks.check_class_size_answer("dihedral:12", bad)
    bad = dict(analyze_answer, components=analyze_answer["components"] + 1)
    assert checks.check_class_size_answer("dihedral:12", bad)


def test_class_equation_alone_is_not_enough():
    # same |G|, every size divides it, class equation holds: still wrong
    assert checks.check_class_sizes("dihedral:7", 14, {1: 1, 2: 3, 7: 1}) == []
    assert checks.check_class_sizes("dihedral:7", 14, {1: 3, 2: 2, 7: 1})


@pytest.fixture(scope="module")
def report():
    g = conjlab.build(conjlab.parse_spec("direct:frobenius:5,4+heisenberg:3"))
    data = conjlab.verify_main_theorem(g, lemma_seed=3, lemma_samples=40).to_dict()
    data["timings"] = {}
    return data


def test_report_accepted(report):
    assert report["verdict"] == "VerifiedDecomposition"
    assert checks.check_report("direct:frobenius:5,4+heisenberg:3", report, 40) == []


@pytest.mark.parametrize("status", ["fail", "skipped"])
def test_lemma_status_rejected(report, status):
    bad = copy.deepcopy(report)
    bad["lemma_results"]["class_size_divisibility"]["status"] = status
    assert checks.check_report("direct:frobenius:5,4+heisenberg:3", bad, 40)


def test_short_sampled_lemma_rejected(report):
    bad = copy.deepcopy(report)
    res = bad["lemma_results"]["centralizer_image_in_quotient"]
    assert res["mode"] == "sampled"
    res["checked"] -= 1
    assert checks.check_report("direct:frobenius:5,4+heisenberg:3", bad, 40)


def test_missing_lemma_rejected(report):
    bad = copy.deepcopy(report)
    del bad["lemma_results"]["split_sylow_centralizer"]
    assert checks.check_report("direct:frobenius:5,4+heisenberg:3", bad, 40)


def test_bad_decomposition_and_verdict_rejected(report):
    spec = "direct:frobenius:5,4+heisenberg:3"
    bad = copy.deepcopy(report)
    bad["decompositions"][0]["b_order"] = 9
    assert checks.check_report(spec, bad, 40)
    bad = copy.deepcopy(report)
    bad["decompositions"][0]["b_class_sizes"] = [1, 9]
    assert checks.check_report(spec, bad, 40)
    bad = dict(copy.deepcopy(report), verdict="COUNTEREXAMPLE")
    assert checks.check_report(spec, bad, 40)
    bad = dict(copy.deepcopy(report), decompositions=[])
    assert checks.check_report(spec, bad, 40)


def test_scan_records_checked():
    wl = ScanBuiltin(seed=0)
    report = conjlab.verify_main_theorem(conjlab.build(conjlab.parse_spec("frobenius:5,4")))
    report.timings = {}
    record = conjlab.ScanRecord(spec="frobenius:5,4", report=report, timestamp="1970-01-01T00:00:00Z")
    raw = conjlab.record_to_line(record) + "\n"
    answer = wl.answers({"scan": raw})["frobenius:5,4"]
    assert checks.check_scan_record("frobenius:5,4", answer) == []
    assert checks.check_scan_record("frobenius:5,4", None)
    error = dict(answer, report=None, error="CapExceeded: too big")
    assert checks.check_scan_record("frobenius:5,4", error)
    wrong = copy.deepcopy(answer)
    wrong["report"]["group_order"] = 21
    assert checks.check_scan_record("frobenius:5,4", wrong)


def test_self_time_is_duration_minus_child_coverage():
    rec = tracing.SpanRecorder()
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 3.0, root)
    rec.add("b", 2.0, 5.0, root)  # overlaps a: covered once
    rec.add("c", 8.0, 12.0, root)  # runs past the root: clipped
    rec.add("a.child", 1.5, 2.5, a)  # grandchild: not subtracted from root
    st = rec.self_times()
    assert st[root] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert st[a] == pytest.approx(2.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert rec.totals()["root"] == (1, pytest.approx(4.0))


def test_install_traces_and_undo_restores():
    originals = (conjlab.build, conjlab.corpus.group_from_generators, conjlab.group.Group.quotient)
    rec = tracing.SpanRecorder()
    undo = tracing.install(rec)
    try:
        for _ in range(2):  # the first group is freed before the second exists
            g = conjlab.build(conjlab.parse_spec("symmetric:4"))
            k = g.normal_subgroups()[1]
            g.quotient(k)
            g.quotient(k)
            g.centralizer_mask_idx(1)
            del g, k
            gc.collect()
    finally:
        undo()
    assert (conjlab.build, conjlab.corpus.group_from_generators, conjlab.group.Group.quotient) == originals
    m = tracing.layer_metrics(
        rec,
        ["corpus.build.calls", "group.quotient.calls", "group.quotient.distinct",
         "group.normal_subgroups.found", "group.centralizer_mask_idx.distinct", "group.self_s"],
    )
    assert m["corpus.build.calls"] == 2
    assert m["group.quotient.calls"] == 4 and m["group.quotient.distinct"] == 2
    assert m["group.normal_subgroups.found"] == 8
    assert m["group.centralizer_mask_idx.distinct"] == 2
    assert m["group.self_s"] > 0
    first = rec.names.index("group.group_from_generators")
    assert rec.names[rec.parents[first]] == "corpus.build"
