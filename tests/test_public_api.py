"""The package's public surface: exactly the names its users reach."""

import re
from pathlib import Path

import conjlab

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = {"arith", "cli", "corpus", "errors", "group", "grpio", "invariants", "perm", "theorem"}


def _names_reached(text: str) -> set[str]:
    """Names a text takes from the package as conjlab.<name> or from conjlab import."""
    names = set(re.findall(r"\bconjlab\.(\w+)", text))
    for block in re.findall(r"from conjlab import (\([^)]*\)|[^\n]*)", text):
        names.update(re.findall(r"\w+", block.split(" as ")[0]))
    return names - SUBMODULES - {"__all__", "__file__"}


def test_every_exported_name_resolves():
    assert len(conjlab.__all__) == len(set(conjlab.__all__))
    for name in conjlab.__all__:
        assert getattr(conjlab, name) is not None, name


def test_exports_are_what_readme_acceptance_and_benchmark_reach():
    sources = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    reached = set().union(*(_names_reached(p.read_text()) for p in sources))
    assert reached == set(conjlab.__all__)
