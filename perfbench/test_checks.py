"""Tests for the benchmark's own parts: each checker accepts the program's
real output and rejects a corrupted copy, the exact twins agree with becpolar,
the tracer attributes calls made through every namespace, and BENCHMARK.json
names what run.py reports.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from becpolar import orders, synthesis, to_path_counts
from becpolar.monomials import Monomial

import checks
import run
import spans
import workloads
from checks import CheckError

TWINS = checks.Twins()


def cli(*argv: str) -> tuple[int, str]:
    return workloads.run_cli(argv)


# ---------------------------------------------------------------------------
# exact twins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 3, 5])
def test_twins_match_becpolar(m):
    table = synthesis.synth_all(m)
    n = 1 << m
    assert TWINS.power(m) == [list(table[u].coeffs) for u in range(n)]
    assert TWINS.counts(m) == [list(to_path_counts(table[u], n).counts) for u in range(n)]
    assert TWINS.avr(m) == [table.avr(u) for u in range(n)]


def test_scalar_recursion_matches_polynomial():
    table = synthesis.synth_all(4)
    p = Fraction(2, 7)
    assert all(checks.scalar_erasure(u, 4, p) == table[u](p) for u in range(16))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_distribution_accepts_and_rejects_a_wrong_decile_row():
    rc, text = cli("distribution", "--m", "7")
    checks.check_distribution(rc, text, 7)

    def corrupt(*changes):
        lines = text.splitlines()
        for row, delta in changes:
            low, high, count = lines[row].split(",")
            lines[row] = f"{low},{high},{int(count) + delta}"
        return "\n".join(lines) + "\n"

    with pytest.raises(CheckError, match="sum"):
        checks.check_distribution(rc, corrupt((3, 1)), 7)
    with pytest.raises(CheckError, match="mirror"):
        checks.check_distribution(rc, corrupt((3, 1), (4, -1)), 7)
    # a mirrored move keeps the total and the symmetry; the golden row catches it
    with pytest.raises(CheckError, match="golden"):
        checks.check_distribution(rc, corrupt((3, 1), (4, -1), (8, 1), (7, -1)), 7)


def test_avrplot_accepts_and_rejects_a_wrong_row():
    rc, text = cli("avrplot", "--m", "5", "--out", "-")
    checks.check_avrplot(rc, text, 5)
    lines = text.splitlines()
    u, value = lines[1 + 3].split(",")  # label 3 = 2^2 - 1 has a closed form
    lines[1 + 3] = f"{u},{Decimal(value) + Decimal('0.000001')}"
    with pytest.raises(CheckError, match="closed form"):
        checks.check_avrplot(rc, "\n".join(lines), 5)
    lines = text.splitlines()
    u, value = lines[1 + 5].split(",")
    lines[1 + 5] = f"{u},{Decimal(value) + Decimal('0.001')}"
    with pytest.raises(CheckError, match="complement"):
        checks.check_avrplot(rc, "\n".join(lines), 5)
    with pytest.raises(CheckError, match="exit code"):
        checks.check_avrplot(2, text, 5)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("by", ["p=2/5", "avr", "beta=1.37"])
def test_rank_accepts_real_output(by):
    rc, text = cli("rank", "--m", "5", "--by", by, "--k", "12", "--format", "json")
    checks.check_rank(rc, text, 5, by, 12, TWINS)


def _rank_doc(by: str) -> dict:
    rc, text = cli("rank", "--m", "5", "--by", by, "--k", "12", "--format", "json")
    return json.loads(text)


@pytest.mark.parametrize("by", ["p=2/5", "avr", "beta=1.37"])
def test_rank_rejects_a_swapped_entry(by):
    doc = _rank_doc(by)
    doc["records"][3], doc["records"][4] = doc["records"][4], doc["records"][3]
    with pytest.raises(CheckError, match="exact order"):
        checks.check_rank(0, json.dumps(doc), 5, by, 12, TWINS)


@pytest.mark.parametrize("field, value, match", [
    ("score", "1/3", "score"),
    ("avr", "1/2", "avr"),
    ("avr_decimal", "0.123456", "avr decimal"),
    ("threshold_decimal", "0.5", "straddle"),
])
def test_rank_rejects_a_wrong_field(field, value, match):
    doc = _rank_doc("p=2/5")
    doc["records"][5][field] = value
    with pytest.raises(CheckError, match=match):
        checks.check_rank(0, json.dumps(doc), 5, "p=2/5", 12, TWINS)


def test_rank_rejects_a_threshold_off_by_a_few_ulps():
    doc = _rank_doc("avr")
    rec = doc["records"][7]
    rec["threshold_decimal"] = str(Decimal(rec["threshold_decimal"]) + Decimal("0.000003"))
    with pytest.raises(CheckError, match="straddle"):
        checks.check_rank(0, json.dumps(doc), 5, "avr", 12, TWINS)


def test_rank_rejects_a_wrong_beta_score():
    doc = _rank_doc("beta=1.37")
    rec = doc["records"][2]
    assert rec["score"] == "1.37"  # channel x1 scores beta^1
    rec["score"] = "1.371"
    with pytest.raises(CheckError, match="beta score"):
        checks.check_rank(0, json.dumps(doc), 5, "beta=1.37", 12, TWINS)


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------

PAIRS = workloads.WORKLOADS["pairs"]


def _verdicts(m, u, v, table):
    return tuple(orders.compare(Monomial(m, u), Monomial(m, v), r, table).result.value
                 for r in PAIRS.RELATIONS)


def test_pair_checker_accepts_every_m5_pair_and_rejects_a_flipped_verdict():
    table = synthesis.synth_all(5)
    flip = {checks.LEQ: checks.GEQ, checks.GEQ: checks.LEQ,
            checks.INCOMPARABLE: checks.LEQ}
    for u in range(32):
        for v in range(u + 1, 32):
            verdicts = _verdicts(5, u, v, table)
            checks.check_pair(u, v, verdicts, 5, TWINS)
            flipped = verdicts[:3] + (flip[verdicts[3]],)
            with pytest.raises(CheckError):
                checks.check_pair(u, v, flipped, 5, TWINS)


def test_pair_checker_rejects_a_broken_chain():
    # x0 divides x0x1, so every relation must say less_or_equal
    verdicts = (checks.LEQ, checks.INCOMPARABLE, checks.LEQ, checks.LEQ)
    with pytest.raises(CheckError, match="weak says"):
        checks.check_pair(1, 3, verdicts, 5, TWINS)


def test_complement_closure():
    # at m = 5, (3, 16) is incomparable and so is its complement pair (15, 28)
    assert checks.check_complement_closure({(3, 16), (15, 28)}, 5) == set()
    assert checks.check_complement_closure({(3, 16)}, 5) == {(3, 16)}


def test_pairs_workload_check_flags_inconsistent_and_unclosed_pairs():
    state = PAIRS.setup(seed=0)
    tasks = [(3, 16), (3, 16)]
    good = PAIRS.run(state, (3, 16))
    other = good[:3] + (checks.LEQ,)
    reasons = PAIRS.check(state, tasks, [good, other], TWINS)
    assert all(reasons)
    reasons = PAIRS.check(state, tasks[:1], [good], TWINS)
    assert reasons[0] and "complement" in reasons[0]


# ---------------------------------------------------------------------------
# verify and synth
# ---------------------------------------------------------------------------


def test_verify_checker():
    rc, text = cli("verify", "--m", "4", "--suite", "identities")
    checks.check_verify(rc, text)
    failing = text.replace("PASS identities/duality", "FAIL identities/duality", 1)
    with pytest.raises(CheckError, match="FAIL"):
        checks.check_verify(rc, failing)
    with pytest.raises(CheckError, match="checks passed"):
        checks.check_verify(rc, text.replace("5/5", "4/5"))
    with pytest.raises(CheckError, match="exit code"):
        checks.check_verify(1, text)


def test_synth_checker():
    rc, text = cli("synth", "--m", "4", "--format", "json")
    checks.check_synth(rc, text, 4, TWINS)
    doc = json.loads(text)
    doc["channels"][6]["path_counts"][5] += 1
    with pytest.raises(CheckError, match="channel 6"):
        checks.check_synth(rc, json.dumps(doc), 4, TWINS)


def test_failed_check_counts_without_aborting():
    tables = workloads.WORKLOADS["tables"]
    task = ("distribution", "--m", "7")
    good = cli(*task)
    bad = (good[0], good[1].replace("\n0.1,0.2,13\n", "\n0.1,0.2,14\n"))
    reasons = tables.check(None, [task, task, task], [good, bad, good], TWINS)
    assert reasons[0] is None and reasons[2] is None and "sum" in reasons[1]


def test_raising_task_counts_without_aborting():
    state = PAIRS.setup(seed=0)
    state.cycle(0)[:] = [(0, 1), (0, 999), (1, 2)]  # label 999 does not exist
    phase, traced, _ = run.timed_phase(PAIRS, state, 0.001)
    assert phase.cycles == 1 and len(phase.tasks) == 3 and not traced.tasks
    assert phase.errors[0] is None and "IndexError" in phase.errors[1]
    assert phase.errors[2] is None
    reasons = PAIRS.check(state, phase.tasks, phase.outputs, TWINS)
    assert reasons[0] is None and reasons[1] and reasons[2] is None


# ---------------------------------------------------------------------------
# tracer and the benchmark description
# ---------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    from becpolar import construction, polynomials
    original = construction.eval_rational
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert construction.eval_rational is not original
        assert construction.eval_rational is polynomials.eval_rational
        cli("rank", "--m", "3", "--by", "p=1/3", "--k", "2", "--format", "json")
        tracer.end_task()
    finally:
        tracer.uninstall()
    assert construction.eval_rational is original
    assert tracer.calls("construction.rank") == 1
    assert tracer.calls("synthesis.synth_all") == 1
    assert tracer.calls("polynomials.eval_rational") >= 8  # scores of 8 channels
    assert tracer.calls("monomials.all_monomials") == 0
    main_s = tracer.seconds("cli.main")
    inner = sum(t[2] for name, t in tracer.totals.items() if not name.startswith("cli."))
    assert 0 <= tracer.self_seconds("cli") <= main_s
    assert tracer.self_seconds("cli") + inner == pytest.approx(main_s, rel=1e-6)


def test_tracer_counts_certified_sign_decisions():
    table = synthesis.synth_all(5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for u, v in [(3, 16), (0, 31)]:  # incomparable, then a certified pair
            orders.compare(Monomial(5, u), Monomial(5, v), orders.Relation.POINTWISE, table)
        tracer.end_task()
    finally:
        tracer.uninstall()
    assert tracer.sign_decisions == tracer.calls("polynomials.nonneg_on_01") == 3
    assert tracer.certified == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
