"""The .grp text format: parsing and loading."""

import re

import pytest

from conjlab import group as group_module
from conjlab.errors import CapExceeded, GrpFormatError
from conjlab.grpio import load_grp, parse_grp
from conjlab.perm import Perm

SAMPLE = """\
# a comment line
degree 4
name demo  # trailing comment

(0 1 2 3)
(0 1)
"""


def test_parse_sample():
    degree, name, gens = parse_grp(SAMPLE)
    assert degree == 4 and name == "demo"
    assert [g.cycle_string() for g in gens] == ["(0 1 2 3)", "(0 1)"]


def test_parse_identity_generator():
    degree, name, gens = parse_grp("degree 3\nname idle\n()\n")
    assert gens == [Perm.identity(3)]


def test_parse_no_generators_gives_trivial_group(tmp_path):
    path = tmp_path / "t.grp"
    path.write_text("degree 2\nname nothing\n")
    g = load_grp(path)
    assert g.order == 1 and g.name == "nothing"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "degree 4\n",
        "name first\ndegree 4\n",
        "degree x\nname a\n",
        "degree 0\nname a\n",
        "degree 4\nname\n",
        "degree 4\nname a\n(0 9)\n",
        "degree 4\nname a\n(0 1\n",
        "degree 4\nname a\n0 1\n",
    ],
    ids=[
        "empty",
        "missing-name",
        "wrong-order",
        "bad-degree",
        "zero-degree",
        "empty-name",
        "point-out-of-range",
        "unbalanced",
        "no-parens",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GrpFormatError):
        parse_grp(text)


def test_load_respects_cap(tmp_path):
    path = tmp_path / "s5.grp"
    path.write_text("degree 5\nname whole\n(0 1)\n(0 1 2 3 4)\n")
    with pytest.raises(CapExceeded):
        load_grp(path, cap=30)
    assert load_grp(path).order == 120


@pytest.mark.parametrize("gens", ["(0 1)\n", ""], ids=["one-generator", "no-generators"])
def test_degree_over_the_cell_limit_is_refused_before_any_generator(monkeypatch, gens):
    # each table row holds degree cells: a degree over the limit is refused
    # before a generator line is turned into a degree-sized permutation
    def parse_nothing(*args, **kwargs):
        raise AssertionError("a generator line was parsed")

    monkeypatch.setattr(group_module, "_CELL_LIMIT", 1000)
    monkeypatch.setattr(Perm, "from_cycle_string", parse_nothing)
    with pytest.raises(CapExceeded, match="degree 2000 passes the cell limit of 1000"):
        parse_grp(f"degree 2000\nname big\n{gens}")
    assert parse_grp("degree 1000\nname edge\n")[0] == 1000


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.grp"
    path.write_bytes(b"degree 2\nname caf\xe9\n")
    with pytest.raises(GrpFormatError, match=re.escape(f"{path}: not UTF-8 text")):
        load_grp(path)
