"""Independent checks of conjlab's answers.

Every check returns a list of problems; an empty list means the answer
passed.  The expected values come from closedform.py (spec formulas and
brute force, no conjlab import), from the brute-force oracle in
tests/oracle.py for small groups, or from properties the mathematics
forces: the class equation, class sizes dividing |G|, and the shape of a
verified decomposition.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from pathlib import Path

import closedform as cf

ROOT = Path(__file__).resolve().parent.parent

LEMMA_NAMES = (
    "normal_p_complement",
    "sylow_center_in_center",
    "class_size_divisibility",
    "series_class_divisibility",
    "coprime_centralizer_product",
    "coprime_quotient_centralizer",
    "centralizer_image_in_quotient",
    "noncentral_misses_class",
    "commuting_sylow_criterion",
    "abelian_sylow_when_inert",
    "single_nonabelian_factor",
    "split_sylow_centralizer",
)

# Sampled checks whose every draw yields a case, so a sampled run must
# report exactly the budget.  coprime_centralizer_product qualifies because
# the identity commutes with everything and has order 1, so each draw finds
# a coprime partner.  coprime_quotient_centralizer skips draws whose order
# shares a prime with |K| and is left out.
UNCONDITIONAL_DRAWS = frozenset(
    {
        "class_size_divisibility",
        "series_class_divisibility",
        "coprime_centralizer_product",
        "centralizer_image_in_quotient",
        "noncentral_misses_class",
        "split_sylow_centralizer",
    }
)

# the pure-Python oracle costs |G|^2 compositions per group
ORACLE_MAX_ORDER = 200

_ORACLE_GENS = {
    "cyclic": ("cyclic_gens", 1),
    "dihedral": ("dihedral_gens", 3),
    "symmetric": ("symmetric_gens", 3),
    "alternating": ("alternating_gens", 4),
    "heisenberg": ("heisenberg_gens", 3),
    "frobenius": ("frobenius_gens", 0),
}


@lru_cache(maxsize=1)
def _oracle():
    """tests/oracle.py, imported from its file without modification."""
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("conjlab_test_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_elements(spec: str):
    oracle = _oracle()
    kind, params = cf.parse(spec)
    if kind == "direct":
        parts = [_oracle_elements(p) for p in params]
        if any(p is None for p in parts):
            return None
        elems = parts[0]
        for nxt in parts[1:]:
            elems = oracle.direct_product_elements(elems, nxt)
        return elems
    fn_name, smallest = _ORACLE_GENS[kind]
    if params[0] < smallest:
        return None
    return oracle.closure(getattr(oracle, fn_name)(*params))


@lru_cache(maxsize=None)
def oracle_class_sizes(spec: str) -> dict | None:
    """Class size -> class count by brute force, or None when out of reach."""
    if cf.group_order(spec) > ORACLE_MAX_ORDER:
        return None
    elems = _oracle_elements(spec)
    if elems is None:
        return None
    return _oracle().class_sizes(elems)


# ----- single facts ----------------------------------------------------------


def check_order(spec: str, order: int) -> list[str]:
    want = cf.group_order(spec)
    return [] if order == want else [f"{spec}: order {order}, closed form {want}"]


def check_class_sizes(spec: str, order: int, mults: dict[int, int]) -> list[str]:
    """Class-size multiplicities against the closed form and the oracle."""
    out = []
    if 1 not in mults:
        out.append(f"{spec}: no class of size 1")
    bad = sorted(s for s in mults if s < 1 or order % s)
    if bad:
        out.append(f"{spec}: class sizes {bad} do not divide |G| = {order}")
    total = sum(s * c for s, c in mults.items())
    if total != order:
        out.append(f"{spec}: class equation sums to {total}, |G| = {order}")
    want = cf.size_multiplicities(cf.class_list(spec))
    if mults != want:
        out.append(f"{spec}: class sizes {sorted(mults.items())}, closed form {sorted(want.items())}")
    brute = oracle_class_sizes(spec)
    if brute is not None and mults != brute:
        out.append(f"{spec}: class sizes {sorted(mults.items())}, oracle {sorted(brute.items())}")
    return out


def check_element_orders(spec: str, orders: list[int]) -> list[str]:
    want = cf.element_orders(cf.class_list(spec))
    out = []
    if set(orders) != want:
        out.append(f"{spec}: element orders {sorted(orders)}, closed form {sorted(want)}")
    if orders and max(orders) != max(want):
        out.append(f"{spec}: largest element order {max(orders)}, closed form {max(want)}")
    return out


def check_p_patterns(spec: str, patterns: dict, max_parts: dict) -> list[str]:
    """patterns: p -> (kind, exponent, parts); max_parts: p -> largest p-part."""
    classes = cf.class_list(spec)
    primes = cf.primes_of(cf.group_order(spec))
    out = []
    if sorted(patterns) != primes or sorted(max_parts) != primes:
        out.append(f"{spec}: primes {sorted(patterns)}, closed form {primes}")
    for p in primes:
        want = cf.p_pattern(classes, p)
        got = patterns.get(p)
        if got is None or (got[0], got[1], tuple(got[2])) != want:
            out.append(f"{spec}: p={p} pattern {got}, closed form {want}")
        if max_parts.get(p) != max(want[2]):
            out.append(f"{spec}: p={p} max class part {max_parts.get(p)}, closed form {max(want[2])}")
    return out


def check_components(spec: str, mults: dict[int, int], components: int) -> list[str]:
    want = cf.divisibility_components(set(mults) - {1})
    if components != want:
        return [f"{spec}: {components} divisibility components, brute force {want}"]
    return []


def check_lemmas(spec: str, results: dict, budget: int, order: int, mults: dict) -> list[str]:
    """The full suite ran, every check passed, and the case counts add up."""
    out = []
    if sorted(results) != sorted(LEMMA_NAMES):
        out.append(f"{spec}: lemma checks {sorted(results)}")
    for name, res in results.items():
        if res["status"] != "pass":
            out.append(f"{spec}: lemma {name} is {res['status']}: {res['detail']}")
        if res["mode"] == "sampled" and name in UNCONDITIONAL_DRAWS and res["checked"] != budget:
            out.append(f"{spec}: sampled lemma {name} checked {res['checked']} of {budget}")
    noncentral = order - mults.get(1, 0)
    res = results.get("noncentral_misses_class")
    if res is not None:
        want_mode = "exhaustive" if noncentral <= budget else "sampled"
        want_checked = noncentral if want_mode == "exhaustive" else budget
        if (res["mode"], res["checked"]) != (want_mode, want_checked):
            out.append(
                f"{spec}: noncentral_misses_class {res['mode']} with {res['checked']} cases, "
                f"{noncentral} noncentral elements need {want_mode} with {want_checked}"
            )
    return out


def check_report(spec: str, report: dict, lemma_budget: int | None) -> list[str]:
    """A TheoremReport dict: order, N(G), verdict, decompositions, lemmas.

    lemma_budget None means the lemma suite was off and no results may
    appear.
    """
    order = report["group_order"]
    mults = {int(s): int(c) for s, c in report["n_of_g"]["multiplicities"]}
    out = check_order(spec, order) + check_class_sizes(spec, order, mults)
    if sorted(report["n_of_g"]["sizes"]) != sorted(mults):
        out.append(f"{spec}: N(G) {report['n_of_g']['sizes']} disagrees with its multiplicities")
    sizes = set(mults)
    facs = cf.hypothesis_factorizations(sizes)
    got_facs = [(frozenset(f["omega"]), f["n"]) for f in report["factorizations"]]
    if got_facs != facs:
        out.append(f"{spec}: factorizations {got_facs}, brute force {facs}")
    want_verdict = "VerifiedDecomposition" if facs else "HypothesisNotMet"
    if report["verdict"] != want_verdict:
        out.append(f"{spec}: verdict {report['verdict']}, expected {want_verdict}")
    decs = report["decompositions"]
    if len(decs) != len(facs):
        out.append(f"{spec}: {len(decs)} decompositions for {len(facs)} factorizations")
    for dec in decs:
        out += check_decomposition(spec, dec, order, sizes)
    if lemma_budget is None:
        if report["lemma_results"]:
            out.append(f"{spec}: lemma results present with the suite off")
    else:
        out += check_lemmas(spec, report["lemma_results"], lemma_budget, order, mults)
    return out


def check_decomposition(spec: str, dec: dict, order: int, sizes: set[int]) -> list[str]:
    """N(A) N(B) = N(G), |A||B| = |G|, N(A) = omega, N(B) = {1, n}, n a prime power."""
    out = []
    a_sizes, b_sizes, n = set(dec["a_class_sizes"]), set(dec["b_class_sizes"]), dec["n"]
    if dec["a_order"] * dec["b_order"] != order:
        out.append(f"{spec}: |A||B| = {dec['a_order']}*{dec['b_order']} != {order}")
    if {a * b for a in a_sizes for b in b_sizes} != sizes:
        out.append(f"{spec}: N(A)N(B) = {sorted(a_sizes)}x{sorted(b_sizes)} != N(G)")
    if a_sizes != set(dec["omega"]) or b_sizes != {1, n}:
        out.append(f"{spec}: N(A) {sorted(a_sizes)} N(B) {sorted(b_sizes)} for omega {dec['omega']} n {n}")
    if len(cf.primes_of(n)) != 1:
        out.append(f"{spec}: n = {n} is not a prime power")
    return out


def check_scan_record(spec: str, record: dict | None) -> list[str]:
    """One canonical `scan --no-lemmas` record."""
    if record is None:
        return [f"{spec}: no scan record"]
    if record.get("error") or record.get("report") is None:
        return [f"{spec}: error record {record.get('error')!r}"]
    out = []
    if record["timestamp"] != "1970-01-01T00:00:00Z" or record["report"]["timings"]:
        out.append(f"{spec}: record is not canonical")
    if record["report"]["group_name"] != spec:
        out.append(f"{spec}: record names {record['report']['group_name']}")
    return out + check_report(spec, record["report"], None)


def check_class_size_answer(spec: str, ans: dict) -> list[str]:
    """One class-sizes operation: order, N(G), components, p-parts, orders."""
    mults = {int(s): int(c) for s, c in ans["multiplicities"]}
    return (
        check_order(spec, ans["order"])
        + check_class_sizes(spec, ans["order"], mults)
        + check_components(spec, mults, ans["components"])
        + check_p_patterns(spec, ans["patterns"], ans["max_parts"])
        + check_element_orders(spec, ans["element_orders"])
    )
