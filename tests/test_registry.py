"""The check registry behind `becpolar verify` and the acceptance suite."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from becpolar import checks, cli, construction, golden, orders, polynomials, synthesis
from becpolar.orders import Comparison
from conftest import named


def test_names_are_unique_and_prefixed_by_a_suite():
    names = [check.name for check in checks.REGISTRY]
    assert len(set(names)) == len(names)
    for check in checks.REGISTRY:
        assert check.suite in checks.SUITES and check.name.count("/") == 1, check.name


def test_a_check_refuses_an_m_without_instances(cache):
    with pytest.raises(ValueError, match="no instances"):
        named("tables/degree2-path-counts").run(5, cache.table(5))


@pytest.mark.parametrize("m", range(1, 6))
def test_all_suite_prints_the_four_suites_in_order(capsys, m):
    assert cli.main(["verify", "--m", str(m), "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"PASS {check.name} m={check.examines(m)}"
                          for check in checks.REGISTRY if check.applies(m)]
    suites = [line.split()[1].split("/")[0] for line in lines[:-1]]
    assert suites == sorted(suites, key=checks.SUITES.index)
    assert set(suites) == set(checks.SUITES)


@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda check: check.name)
def test_check_passes_at_its_smallest_m(cache, check):
    """Every check runs in the fast tier at its first instance, which is at
    m <= 5 for all but tables/beta-incompatible (first golden row at m = 6)."""
    m = next(m for m in range(1, 10) if check.applies(m))
    assert check.run(m, cache.table(m)) is None


@pytest.mark.parametrize("m", [5, 6])
def test_only_moment_averages_integrates(monkeypatch, cache, m):
    """Every check reads its averages from the moment recursion but
    tables/moment-averages, which holds them against the integrals.  At
    m = 5 the pointwise scan also runs uncached under the patch, which shows
    that the scan integrates nothing; m = 6 reads the cached scan."""
    table = cache.table(m)

    def refuse(*args, **kwargs):
        raise AssertionError("a check integrated a channel")
    for module in (synthesis, polynomials):
        monkeypatch.setattr(module, "integrate01", refuse)
    if m == 5:
        construction.pointwise_verdicts.__wrapped__(table)
    for check in checks.REGISTRY:
        if check.name != "tables/moment-averages" and check.applies(m):
            assert check.run(m, table) is None, check.name
    with pytest.raises(AssertionError, match="integrated"):
        named("tables/moment-averages").run(m, table)


def _fresh_scan_cache(monkeypatch):
    """Give `pointwise_verdicts` an empty cache of its own for one test, so
    that the test scans afresh and the session's cached scans survive it."""
    scan = construction.pointwise_verdicts
    monkeypatch.setattr(construction, "pointwise_verdicts",
                        lru_cache(maxsize=scan.cache_info().maxsize)(scan.__wrapped__))


def test_pointwise_table_checks_share_one_scan(monkeypatch, cache):
    """incomparable-pairs, incomparable-complement-closure and
    pointwise-avr-compat read one `leq_pointwise` verdict per label pair, and
    its incomparable pairs are the pinned ones."""
    calls = []
    leq_pointwise = orders.leq_pointwise
    monkeypatch.setattr(orders, "leq_pointwise", lambda *args: calls.append(args) or leq_pointwise(*args))
    _fresh_scan_cache(monkeypatch)
    table = cache.table(5)
    for name in ("tables/incomparable-pairs", "tables/incomparable-complement-closure",
                 "tables/pointwise-avr-compat"):
        assert named(name).run(5, table) is None
    assert len(calls) == 32 * 31 // 2
    incomparable = sorted((min(u, v), max(u, v)) for u, v, verdict in construction.pointwise_verdicts(table)
                          if verdict is Comparison.INCOMPARABLE)
    assert incomparable == golden.INCOMPARABLE_PAIRS_M5


def test_verify_converts_each_channel_at_most_once(capsys, monkeypatch):
    """`verify --m 5 --suite all` converts the channels of its table through
    `ChannelTable.counts`, once each, and no difference polynomial; the
    oracle check converts the m = 4 channels once each on its own."""
    seen = Counter()
    convert = polynomials.to_path_counts

    def counted(a, n):
        seen[a.coeffs, n] += 1
        return convert(a, n)
    for module in (polynomials, synthesis):
        monkeypatch.setattr(module, "to_path_counts", counted)
    _fresh_scan_cache(monkeypatch)
    assert cli.main(["verify", "--m", "5", "--suite", "all"]) == 0
    capsys.readouterr()
    assert max(seen.values()) == 1
    channels = {(poly.coeffs, 1 << m) for m in (4, 5) for poly in synthesis.synth_all(m).polys}
    assert set(seen) <= channels


def test_checks_report_two_swapped_channels(cache):
    """Labels 3 and 16 are not complements (3 ^ 16 != 31), so a table with
    their channels swapped breaks duality, the threshold symmetry of labels
    3 and 28, and the agreement of its integrals with the moment recursion."""
    polys = list(cache.table(5).polys)
    polys[3], polys[16] = polys[16], polys[3]
    swapped = synthesis.ChannelTable(5, tuple(polys))
    for name in ("identities/duality", "identities/threshold-symmetry", "tables/moment-averages"):
        assert named(name).run(5, swapped) is not None, name


def test_threshold_certificate_rejects_wrong_thresholds(monkeypatch, cache):
    """Two wrong thresholds that keep t(ubar) = 1 - t(u), so that only the
    bracket certificate on the table can catch them: label 3 moved one
    bracket up and its complement 28 one bracket down, and every threshold
    right but to 2^-21, twice as fine as the check asks."""
    channel_threshold = synthesis.channel_threshold
    step = Fraction(1, 2**19)

    def shifted(f, tol):
        return channel_threshold(f, tol) + {3: step, 28: -step}.get(f.bits, 0)

    def finer(f, tol):
        return channel_threshold(f, tol / 2)
    for wrong in (shifted, finer):
        monkeypatch.setattr(synthesis, "channel_threshold", wrong)
        detail = named("identities/threshold-symmetry").run(5, cache.table(5))
        assert detail is not None and "not the bisection's midpoint" in detail, wrong.__name__
