"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  A criterion is a set of named checks from `becpolar.checks`, run at
every m the criterion covers; the checks hold the assertions and compare
against the golden values in `becpolar.golden`.
"""

import time


class _Timer:
    def __init__(self, name: str, budget_s: float | None):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} [{elapsed:.2f}s]")
            if self.budget is not None:
                assert elapsed < self.budget, \
                    f"{self.name} took {elapsed:.1f}s, budget {self.budget}s"
        else:
            print(f"FAIL {self.name} [{elapsed:.2f}s]")
        return False


def _passes(cache, name, *ms):
    for m in ms:
        detail = cache.check(name, m)
        assert detail is None, f"{name} m={m}: {detail}"


def test_criterion_01_avr_table_two_decimals(cache):
    with _Timer("criterion-1 two-decimal average reliabilities m=2..4", 1.0):
        _passes(cache, "tables/avr-2dp", 2, 3, 4)


def test_criterion_02_degree2_path_count_vectors(cache):
    with _Timer("criterion-2 m=4 degree-2 path-count vectors", 1.0):
        _passes(cache, "tables/degree2-path-counts", 4)


def test_criterion_03_incomparable_pairs(cache):
    with _Timer("criterion-3 incomparable pairs m=5 (seven), m=6 (61) and m=4 (none)", 10.0):
        _passes(cache, "tables/incomparable-pairs", 5, 6, 4)


def test_criterion_04_average_ordering_prefixes(cache):
    with _Timer("criterion-4 average-reliability ordering prefixes m=5, m=6", 10.0):
        _passes(cache, "tables/avr-ordering-prefix", 5, 6)
        _passes(cache, "tables/first-order-rm", 5)


def test_criterion_05_closed_form_equals_integration(cache):
    with _Timer("criterion-5 closed-form average == exact integral, m<=8", 120.0):
        _passes(cache, "reliability/closed-form-avr", *range(1, 9))


def test_criterion_06_inclusion_exclusion_counts(cache):
    with _Timer("criterion-6 inclusion-exclusion path counts m<=6", 30.0):
        _passes(cache, "reliability/inclusion-exclusion", *range(1, 7))


def test_criterion_07_oracle_equivalence(cache):
    with _Timer("criterion-7 subset-enumeration oracle, all m=4 channels", 30.0):
        _passes(cache, "reliability/oracle-equivalence", 4)


def test_criterion_08_strong_order_implies_pointwise(cache):
    with _Timer("criterion-8 dominance implies pointwise, chain, m<=6", 300.0):
        _passes(cache, "orders/implication-chain", *range(1, 7))


def test_criterion_09_polynomial_identities(cache):
    with _Timer("criterion-9 conservation, duality, complement sums, m<=8", 120.0):
        for name in ("identities/erasure-conservation", "identities/duality",
                     "identities/avr-complement"):
            _passes(cache, name, *range(1, 9))


def test_criterion_10_distribution_rows(cache):
    with _Timer("criterion-10 decile histogram rows m=5..9", 300.0):
        _passes(cache, "tables/avr-distribution", *range(5, 10))


def test_criterion_11_beta_incompatible_counts(cache):
    with _Timer("criterion-11 beta-vs-average disagreement counts", 300.0):
        _passes(cache, "tables/beta-incompatible", *range(6, 10))
        _passes(cache, "tables/beta-discordant-pairs", 6, 7, 8)
        _passes(cache, "tables/beta-zero-range", 5)


def test_criterion_12_pair_decimal_values(cache):
    with _Timer("criterion-12 cited pair decimals at m=5", 60.0):
        _passes(cache, "tables/pair-avr-decimals", 5)
        # the fourth cited pair (7, 24) is a complement pair: avr(24) = 1 - avr(7)
        _passes(cache, "identities/avr-complement", 5)


def test_criterion_13_property_suite(cache):
    with _Timer("criterion-13 no duplicate averages; order-average "
                "compatibility; multiplication compatibility", 300.0):
        _passes(cache, "tables/distinct-averages", *range(1, 9))
        _passes(cache, "tables/pointwise-avr-compat", *range(1, 7))
        _passes(cache, "orders/multiplication-compat", *range(2, 7))
