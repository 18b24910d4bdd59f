"""The check registry behind `becpolar verify` and the acceptance suite."""

import pytest

from becpolar import checks, cli


def test_names_are_unique_and_prefixed_by_a_suite():
    names = [check.name for check in checks.REGISTRY]
    assert len(set(names)) == len(names)
    for check in checks.REGISTRY:
        assert check.suite in checks.SUITES and check.name.count("/") == 1, check.name


def test_a_check_refuses_an_m_without_instances(cache):
    with pytest.raises(ValueError, match="no instances"):
        checks.named("tables/degree2-path-counts").run(5, cache.table(5))


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
