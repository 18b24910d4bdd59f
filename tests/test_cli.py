"""Command-line interface: golden outputs, formats, determinism, exit codes."""

import contextlib
import json
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from becpolar import cli
from becpolar.monomials import Monomial
from becpolar.polynomials import eval_rational
from becpolar.synthesis import synth_poly
from conftest import _label_bisection


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_m1_u1_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--m", "1", "--u", "1")
        assert code == 0
        data = json.loads(out)
        assert data["channels"][0]["coeffs"] == [0, 2, -1]

    def test_m2_u0_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--m", "2", "--u", "0")
        assert code == 0
        assert json.loads(out)["channels"][0]["coeffs"] == [0, 0, 0, 0, 1]

    def test_m4_u6_path_counts(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--m", "4", "--u", "6")
        assert code == 0
        assert json.loads(out)["channels"][0]["path_counts"] == [
            0, 0, 0, 0, 16, 192, 1008, 3040, 5828, 7456, 6552, 4048, 1788,
            560, 120, 16, 1]

    def test_one_channel_builds_no_table(self, capsys, monkeypatch):
        from becpolar import synthesis

        def refuse(*args, **kwargs):
            raise AssertionError("synth --u built the full table")
        monkeypatch.setattr(synthesis, "synth_all", refuse)
        code, out, _ = run_cli(capsys, "synth", "--m", "6", "--u", "5")
        assert code == 0
        [entry] = json.loads(out)["channels"]
        assert entry["u"] == 5
        assert entry["coeffs"] == list(synthesis.synth_poly(Monomial(6, 5)).coeffs)

    def test_all_channels_match_the_table(self, capsys, cache):
        code, out, _ = run_cli(capsys, "synth", "--m", "4")
        assert code == 0
        table = cache.table(4)
        assert [(c["u"], c["coeffs"], c["path_counts"]) for c in json.loads(out)["channels"]] == [
            (u, list(table[u].coeffs), list(table.counts[u])) for u in range(16)]

    def test_all_channels_csv(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--m", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u,i,coeff,path_count"
        assert len(lines) == 1 + 2 * 3  # two channels, three rows each

    @pytest.mark.parametrize("m", range(1, 8))
    def test_streamed_json_is_the_dumps_text(self, capsys, cache, m):
        """The JSON written one channel at a time is byte for byte the text
        of `json.dumps(..., indent=2)` of the whole document."""
        table = cache.table(m)
        u = (1 << m) // 3
        for extra, labels in (((), range(1 << m)), (("--u", str(u)), [u])):
            code, out, _ = run_cli(capsys, "synth", "--m", str(m), *extra)
            assert code == 0
            channels = [{"u": v, "monomial": str(Monomial(m, v)), "degree": Monomial(m, v).degree,
                         "coeffs": list(table[v].coeffs), "path_counts": list(table.counts[v])}
                        for v in labels]
            assert out == json.dumps({"m": m, "channels": channels}, indent=2) + "\n"

    def test_json_streams_within_a_memory_bound(self):
        """Peak traced memory of `synth --m 7` stays under 3 MB (building the
        whole document as one text peaks at 5.4 MB); the output goes to a
        sink that keeps nothing, so only the command's own memory counts."""
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)
        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(["synth", "--m", "7", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 900_000
        assert peak < 3_000_000

    def test_bad_u_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--m", "2", "--u", "9")
        assert code == 2
        assert "error" in err

    def test_cap_requires_force(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--m", "11", "--u", "0")
        assert code == 2
        assert "--force" in err


class TestRank:
    def test_avr_m4_first_column(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--m", "4", "--by", "avr")
        assert code == 0
        rows = out.splitlines()
        assert rows[0].startswith("u,monomial,degree,score")
        assert [int(r.split(",")[0]) for r in rows[1:]] == [
            0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15]

    def test_avr_m5_k6(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--m", "5", "--by", "avr", "--k", "6")
        assert code == 0
        assert [int(r.split(",")[0]) for r in out.splitlines()[1:]] == [0, 1, 2, 4, 8, 16]

    def test_pointwise_half_m2_k2(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--m", "2", "--by", "p=1/2", "--k", "2")
        assert code == 0
        rows = [r.split(",") for r in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [0, 1]
        assert rows[0][3] == "1/16" and rows[1][3] == "7/16"

    def test_beta_ranking(self, capsys):
        # beta(4) = 1.22^2 = 1.4884 sorts below beta(3) = 1 + 1.22
        code, out, _ = run_cli(capsys, "rank", "--m", "3", "--by", "beta=1.22")
        assert code == 0
        assert [int(r.split(",")[0]) for r in out.splitlines()[1:]] == [
            0, 1, 2, 4, 3, 5, 6, 7]

    def test_beta_near_one_orders_exactly(self, capsys):
        # beta(12) - beta(17) = b^2 + b^3 - 1 - b^4 = (b - 1)(1 + b - b^3), about
        # 1e-51 here, so 50 significant digits cannot order the pair
        beta = "1." + "0" * 50 + "1"
        code, out, _ = run_cli(capsys, "rank", "--m", "5", "--by", f"beta={beta}")
        assert code == 0
        rows = {int(r.split(",")[0]): r.split(",") for r in out.splitlines()[1:]}
        labels = list(rows)
        assert labels.index(17) < labels.index(12)
        assert rows[2][3] == beta  # the score column is exact

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "rank", "--m", "3", "--by", "avr",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data
        rec = data["records"][0]
        assert rec["u"] == 0
        assert rec["avr"] == "1/9"
        assert rec["avr_decimal"] == "0.111111"

    def test_fraction_decimal_agree(self, capsys):
        from fractions import Fraction
        _, out, _ = run_cli(capsys, "rank", "--m", "4", "--by", "avr", "--format", "json")
        for rec in json.loads(out)["records"]:
            num, den = rec["avr"].split("/")
            exact = Fraction(int(num), int(den))
            assert abs(exact - Fraction(rec["avr_decimal"])) <= Fraction(1, 10**6)

    def test_avr_top_k_computes_only_the_averages_it_lists(self, capsys, monkeypatch):
        """The best 10 of m = 10 by average come off the standard-order
        frontier: a few dozen leaves of the moment walk, where ranking every
        label reaches 512, one of each complement pair.  A leaf comes from
        the difference table, from the closed-form chain flip, or from the
        one sum of a label's last flip (`_flip_leaf`), which stands in for
        the flip child and the steps below it."""
        from becpolar import synthesis
        m, leaves = 10, []
        step, flip, last = synthesis._flip_child, synthesis._chain_flip, synthesis._flip_leaf

        def spy(moments):
            if len(moments) == 3:  # a node of depth m - 1: its flip child is a leaf
                leaves.append(0)
            return step(moments)

        def flip_spy(m_, k, d, r):
            if k == m - 1:
                leaves.append(1)  # the 1-child of node 0^(m-1)
            return flip(m_, k, d, r)

        def last_spy(moments):
            leaves.append(None)  # the leaf of the label whose last flip this is
            return last(moments)
        monkeypatch.setattr(synthesis, "_flip_child", spy)
        monkeypatch.setattr(synthesis, "_chain_flip", flip_spy)
        monkeypatch.setattr(synthesis, "_flip_leaf", last_spy)
        code, out, _ = run_cli(capsys, "rank", "--m", str(m), "--by", "avr", "--k", "10")
        assert code == 0
        assert [int(r.split(",")[0]) for r in out.splitlines()[1:]] == [
            0, 1, 2, 4, 8, 16, 3, 5, 32, 6]
        assert 1 in leaves  # only the closed form makes label 1's leaf
        assert len(leaves) <= 32

    @pytest.mark.parametrize("by", ["avr", "beta=1.22", "p=2/7"])
    @pytest.mark.parametrize("k", [0, 1, 11, 16])
    def test_json_is_the_text_of_json_dumps(self, capsys, by, k):
        """`rank` writes its JSON layout itself; the text is byte for byte
        what `json.dumps(doc, indent=2)` writes for the same document."""
        code, out, _ = run_cli(capsys, "rank", "--m", "4", "--by", by, "--k", str(k),
                               "--format", "json")
        doc = json.loads(out)
        assert code == 0 and len(doc["records"]) == k
        assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("by", ["beta=1.22", "p=2/7"])
    def test_listed_averages_come_from_the_descent(self, capsys, monkeypatch, by):
        """`p=` and `beta=` read the k listed averages from `average_descent`,
        not from the walk of `average_numerators`."""
        from becpolar import synthesis

        def refuse(*args, **kwargs):
            raise AssertionError("the listed averages walked the suffix tree")
        monkeypatch.setattr(synthesis, "average_numerators", refuse)
        code, out, _ = run_cli(capsys, "rank", "--m", "5", "--by", by, "--k", "4")
        assert code == 0 and len(out.splitlines()) == 5

    def test_beta_builds_no_table(self, capsys, monkeypatch):
        from becpolar import synthesis

        def refuse(*args, **kwargs):
            raise AssertionError("beta ranking built the full table")
        monkeypatch.setattr(synthesis, "synth_all", refuse)
        code, out, _ = run_cli(capsys, "rank", "--m", "6", "--by", "beta=1.22", "--k", "3")
        assert code == 0
        assert [int(r.split(",")[0]) for r in out.splitlines()[1:]] == [0, 1, 2]

    @pytest.mark.parametrize("by", ["avr", "p=1/3", "beta=1.22"])
    def test_json_matches_table_and_polynomial_bisection(self, capsys, by):
        # the records as built from the full table, its integrals and the
        # bisection on each label's recursion, the slow twins of the label
        # paths (the threshold twin at every m of the polynomial bisection
        # is in tests/test_synthesis.py), each rendered by `decimal`
        from decimal import ROUND_HALF_UP, Decimal, localcontext

        from becpolar import construction, synthesis
        m = 7
        table = synthesis.synth_all(m)
        criterion = cli._parse_criterion(by)
        ranking = construction.rank(criterion, m)
        records = []

        def frac(value):
            return f"{value.numerator}/{value.denominator}"

        def exact(value):
            # 200 digits hold every beta score of m = 7 exactly (12 places),
            # and keep a quotient of a denominator of under 190 digits off a
            # six-place tie unless it is one: this m's D has 56
            with localcontext() as ctx:
                ctx.prec, ctx.rounding = 200, ROUND_HALF_UP
                return Decimal(value.numerator) / Decimal(value.denominator)

        def dec(value):
            return format(exact(value).quantize(Decimal("1e-6"), ROUND_HALF_UP), "f")

        def beta_text(value):
            text = format(exact(value), "f")
            return text.rstrip("0").rstrip(".") if "." in text else text
        for u in ranking.order:
            score = ranking.score(u)
            threshold = _label_bisection(Monomial(m, u), Fraction(1, 2**30))
            records.append({
                "u": u,
                "monomial": str(Monomial(m, u)),
                "degree": u.bit_count(),
                "score": beta_text(score) if criterion.kind == "beta" else frac(score),
                "score_decimal": dec(score),
                "avr": frac(table.avr(u)),
                "avr_decimal": dec(table.avr(u)),
                "threshold_decimal": dec(threshold),
            })
        code, out, _ = run_cli(capsys, "rank", "--m", str(m), "--by", by, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"m": m, "criterion": criterion.label(), "records": records}

    def test_bad_criterion(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--m", "3", "--by", "zeta=2")
        assert code == 2

    def test_p_must_be_interior(self, capsys):
        code, _, _ = run_cli(capsys, "rank", "--m", "3", "--by", "p=1")
        assert code == 2

    @pytest.mark.parametrize("by", ["p=1/0", "beta=abc", "beta=NaN", "beta=Infinity",
                                    "beta=1e999999999", "p=1e-999999999"])
    def test_bad_number_is_usage_error(self, capsys, by):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "rank", "--m", "3", "--by", by)
        assert time.perf_counter() - start < 1  # refused before it is parsed
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exact_score_past_4300_digits(self, capsys):
        """The score denominator has 4352 digits, past CPython's default
        int-to-string limit, which `main` lifts while the command runs and
        restores after."""
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int-to-string limit")
        limit = sys.get_int_max_str_digits()
        p = "1/100000000000000003"
        code, out, err = run_cli(capsys, "rank", "--m", "8", "--by", f"p={p}", "--k", "1",
                                 "--format", "json")
        assert sys.get_int_max_str_digits() == limit
        assert code == 0, err
        record = json.loads(out)["records"][0]
        sys.set_int_max_str_digits(0)  # to read the score back here
        try:
            score = Fraction(record["score"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert score.denominator > 10 ** 4300
        assert score == eval_rational(synth_poly(Monomial(8, record["u"])), Fraction(p))


@pytest.mark.parametrize("argv", [
    ("synth", "--m", "10", "--u", "5000"),
    ("rank", "--m", "10", "--by", "avr", "--k", "5000"),
    ("rank", "--m", "10", "--by", "beta=1.22", "--k", "5000"),
])
def test_bad_u_and_k_exit_before_synthesis(capsys, monkeypatch, argv):
    from becpolar import synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("synthesis ran before the usage check")
    for name in ("synth_all", "synth_labels", "synth_poly"):
        monkeypatch.setattr(synthesis, name, refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("argv", [
    ("distribution", "--m", "17", "--force"),
    ("synth", "--m", "0"),
    ("poset", "--m", "-1", "--relation", "dom", "--dot", "-"),
    ("poset", "--m", "0", "--relation", "w", "--dot", "-"),
])
def test_bad_m_exits_before_synthesis(capsys, monkeypatch, argv):
    from becpolar import construction, synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("synthesis ran before the usage check")
    monkeypatch.setattr(synthesis, "synth_all", refuse)
    monkeypatch.setattr(synthesis, "average_numerators", refuse)
    monkeypatch.setattr(construction, "average_numerators", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: m must be in 1..16") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("rank", "--m", "14", "--by", "avr", "--k", "-1"), "--k -1 out of range for m=14"),
    (("synth", "--m", "12", "--u", "-1"), "u=-1 out of range for m=12"),
], ids=["rank-k", "synth-u"])
def test_bad_u_and_k_are_reported_before_the_budget(capsys, argv, message):
    """An out-of-range --k or --u is a usage error at an m whose work the
    budget would refuse, not a budget refusal."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _refusal(m, total, layer, part):
    return (f"error: m={m} is estimated at {total} s ({layer} {part} s), over the "
            f"{cli.BUDGET} s budget; pass --force to override\n")


SYNTHESIS_REFUSAL = _refusal(11, "146", "synthesis", "116")
ONE_CONVERSION_REFUSAL = _refusal(11, "95.3", "conversion", "95.3")
CONVERSION_REFUSAL = _refusal(11, "1.95e+05", "conversion", "1.95e+05")
AVERAGE_REFUSAL = _refusal(14, "188", "average walk", "188")
TABLES_REFUSAL = _refusal(14, "32.4", "difference tables", "32.4")


@pytest.mark.parametrize("argv, m, refusal", [
    (("synth", "--u", "0"), 11, ONE_CONVERSION_REFUSAL),
    (("rank", "--by", "avr"), 14, TABLES_REFUSAL),
    (("rank", "--by", "p=1/3"), 11, SYNTHESIS_REFUSAL),
    (("verify",), 11, CONVERSION_REFUSAL),
    (("distribution",), 14, AVERAGE_REFUSAL),
    (("avrplot", "--out", "-"), 14, AVERAGE_REFUSAL),
], ids=["synth", "rank-avr", "rank-p", "verify", "distribution", "avrplot"])
def test_m_above_the_cap_exits_before_synthesis(capsys, monkeypatch, argv, m, refusal):
    """The CLI alone admits work by its estimated seconds: without --force,
    an m whose estimate exceeds the budget is refused before any library
    call that synthesizes, averages or ranks, and the one stderr line names
    the estimate and its costliest layer."""
    from becpolar import construction, synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the cap check")
    for module, name in ((synthesis, "synth_labels"), (synthesis, "synth_all"),
                         (synthesis, "average_numerators"), (construction, "synth_all"),
                         (construction, "average_numerators"), (construction, "rank")):
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, *argv, "--m", str(m))
    assert code == 2 and out == ""
    assert err == refusal


Q99 = "1" + "0" * 97 + "3"  # a 99-digit denominator


@pytest.mark.parametrize("m", [9, 10])
def test_long_denominator_exits_before_synthesis(capsys, monkeypatch, m):
    """`rank --by p=a/q` is estimated as synthesis plus scoring per digit of
    q for each channel scored: without --force, a listing of every channel
    with a 99-digit q is refused at m = 9 and 10 before any synthesis, with
    scoring named as the costliest layer."""
    from becpolar import construction, synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the cap check")
    for module in (synthesis, construction):
        monkeypatch.setattr(module, "synth_all", refuse)
    code, out, err = run_cli(capsys, "rank", "--m", str(m), "--by", f"p=1/{Q99}")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: m={m} is estimated at ") and "(scoring " in err


def test_long_denominator_keeps_force(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BUDGET", 0)
    code, _, err = run_cli(capsys, "rank", "--m", "3", "--by", "p=1/107")
    assert code == 2 and "(scoring " in err
    code, out, _ = run_cli(capsys, "rank", "--m", "3", "--by", "p=1/107", "--force")
    assert code == 0 and len(out.splitlines()) == 9


class Reached(Exception):
    """Raised by a patched library entry point: the command was admitted."""


@pytest.fixture
def entry_points(monkeypatch):
    """Every library call through which a command starts its costly work,
    patched to raise `Reached`."""
    from becpolar import construction, synthesis

    def reached(*args, **kwargs):
        raise Reached
    for module, name in ((synthesis, "synth_poly"), (synthesis, "synth_labels"),
                         (synthesis, "synth_all"), (synthesis, "average_numerators"),
                         (construction, "synth_all"), (construction, "average_numerators"),
                         (construction, "rank"), (construction, "best"),
                         (synthesis, "average_descent")):
        monkeypatch.setattr(module, name, reached)


Q9, Q18 = "100000003", "100000000000000003"

ADMITTED = [
    *[("rank", "--m", "8", "--k", "11", "--by", by)
      for by in ("p=8/9", f"p=1/{Q9}", "avr", "beta=1.37")],
    *[(cmd, "--m", m) + extra for cmd, extra in (("distribution", ()), ("avrplot", ("--out", "-")))
      for m in ("8", "9", "13")],
    ("verify", "--m", "7"), ("verify", "--m", "8"), ("synth", "--m", "7"), ("synth", "--m", "8"),
    ("synth", "--m", "10", "--u", "0"),
    ("rank", "--m", "8", "--by", f"p=1/{Q18}"),  # README
    ("rank", "--m", "7", "--by", f"p=1/{Q99}"),
    ("rank", "--m", "10", "--by", "p=1/7"),
    # p= from the frontier, which scores at most 1 + mK channels; estimated / measured
    ("rank", "--m", "9", "--by", f"p=1/{Q99}", "--k", "10"),  # 6.0 / 1.4 s
    ("rank", "--m", "10", "--by", f"p=1/{Q9}", "--k", "32"),  # 18.1 s
    ("rank", "--m", "10", "--by", f"p=1/{Q99}", "--k", "5"),  # 24.3 s / 0.57 s past synthesis
    # the frontier, estimated / measured
    ("rank", "--m", "14", "--by", "avr", "--k", "10"),  # 0.0006 / 0.020 s
    ("rank", "--m", "14", "--by", "avr", "--k", "144"),  # 24.9 / 16.6 s
    ("rank", "--m", "15", "--by", "avr", "--k", "10"),  # 0.0012 / 0.029 s
    ("rank", "--m", "15", "--by", "avr", "--k", "120"),  # 24.7 / 7.4 s
    ("rank", "--m", "16", "--by", "avr", "--k", "0"),  # 0 / 0.069 s
    ("rank", "--m", "16", "--by", "avr", "--k", "101"),  # 24.8 / 15.8 s
]
REFUSED = [
    ("rank", "--m", "10", "--by", f"p=1/{Q9}"),
    ("rank", "--m", "9", "--by", f"p=1/{Q99}"),
    ("rank", "--m", "9", "--by", f"p=1/{Q99}", "--k", "64"),  # every channel: 1 + mK > 2^m
    ("rank", "--m", "10", "--by", f"p=1/{Q99}", "--k", "6"),
    ("synth", "--m", "11", "--u", "0"),
    ("verify", "--m", "9"),
    ("distribution", "--m", "14"),
    # the frontier, estimated / measured
    ("rank", "--m", "14", "--by", "avr", "--k", "145"),  # 25.0 / 16.6 s at K = 144
    ("rank", "--m", "15", "--by", "avr", "--k", "144"),  # 51 / 31 s
    ("rank", "--m", "16", "--by", "avr", "--k", "102"),  # 25.8 / 15.7 s
]


def _case_id(argv):
    return " ".join(argv).replace(Q99, "<99 digits>")


@pytest.mark.parametrize("argv", ADMITTED, ids=_case_id)
def test_admitted_work_reaches_the_library(entry_points, argv):
    with pytest.raises(Reached):
        cli.main(list(argv))


@pytest.mark.parametrize("argv", REFUSED, ids=_case_id)
def test_refused_work_never_reaches_the_library(capsys, entry_points, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: m=") and err.endswith("; pass --force to override\n")
    with pytest.raises(Reached):
        cli.main([*argv, "--force"])


@pytest.mark.parametrize("argv", [("distribution",), ("rank", "--by", "beta=1.22", "--k", "2")],
                         ids=["distribution", "rank-beta"])
def test_averages_run_above_the_synthesis_cap(capsys, argv):
    """m = 11 builds no polynomial for these commands: their estimate is the
    average walk, or the tables of the two listed labels, well inside the
    budget."""
    code, out, err = run_cli(capsys, *argv, "--m", "11")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == (11 if argv[0] == "distribution" else 3)


@pytest.mark.parametrize("argv", [("verify",), ("synth",)], ids=["verify", "synth"])
def test_converting_every_channel_caps_m_at_8(capsys, monkeypatch, argv):
    """verify and synth of every channel convert each channel to path counts,
    about 5 min at m = 9: without --force, m = 9 is refused before synthesis."""
    from becpolar import synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the cap check")
    for name in ("synth_labels", "synth_all"):
        monkeypatch.setattr(synthesis, name, refuse)
    code, out, err = run_cli(capsys, *argv, "--m", "9")
    assert code == 2 and out == ""
    assert err == _refusal(9, "308", "conversion", "307")


def test_one_channel_keeps_the_synthesis_cap(capsys):
    code, out, _ = run_cli(capsys, "synth", "--m", "9", "--u", "0")
    assert code == 0
    assert json.loads(out)["channels"][0]["path_counts"] == [0] * 512 + [1]


@pytest.mark.parametrize("argv", [("verify", "--suite", "identities"), ("synth",)],
                         ids=["verify", "synth"])
def test_converting_every_channel_keeps_force(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "BUDGET", 0)
    code, _, err = run_cli(capsys, *argv, "--m", "4")
    assert code == 2 and "(conversion " in err
    code, out, _ = run_cli(capsys, *argv, "--m", "4", "--force")
    assert code == 0 and len(out.splitlines()) > 5


def test_verify_tables_integrates_each_channel_once(capsys, monkeypatch):
    from becpolar import synthesis
    calls = []
    integrate = synthesis.integrate01

    def counted(a):
        calls.append(a)
        return integrate(a)
    monkeypatch.setattr(synthesis, "integrate01", counted)
    code, _, _ = run_cli(capsys, "verify", "--m", "6", "--suite", "tables")
    assert code == 0 and len(calls) == 1 << 6


AVERAGE_COMMANDS = [("distribution",), ("avrplot", "--out", "-"), ("rank", "--by", "avr"),
                    pytest.param(("rank", "--by", "beta=1.22"), id="rank-beta")]


@pytest.mark.parametrize("argv", AVERAGE_COMMANDS, ids=lambda argv: argv[0])
def test_averages_build_no_polynomial(capsys, monkeypatch, argv):
    from becpolar import construction, polynomials, synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("an average built a polynomial")
    for module, name in ((synthesis, "synth_all"), (synthesis, "synth_labels"),
                         (construction, "synth_all"), (polynomials, "integrate01")):
        monkeypatch.setattr(module, name, refuse)
    code, out, _ = run_cli(capsys, *argv, "--m", "6")
    assert code == 0 and len(out.splitlines()) > 10


@pytest.mark.parametrize("argv", AVERAGE_COMMANDS, ids=lambda argv: argv[0])
def test_averages_keep_force(capsys, monkeypatch, argv):
    """The walk prices `distribution` and `avrplot`; `rank` listing every
    label by average or by beta counts the tables of every label."""
    monkeypatch.setattr(cli, "BUDGET", 0)
    code, _, err = run_cli(capsys, *argv, "--m", "4")
    layer = "difference tables" if argv[0] == "rank" else "average walk"
    assert code == 2 and f"({layer} " in err
    code, out, _ = run_cli(capsys, *argv, "--m", "4", "--force")
    assert code == 0 and len(out.splitlines()) > 10


@pytest.mark.parametrize("m, k, estimate", [(13, 1024, "11.8"), (16, 8192, "6.02e+03")])
def test_the_frontier_counts_a_share_of_the_average_walk(capsys, monkeypatch, m, k, estimate):
    """`rank --by avr --k K`, K <= 2^(m-3), is estimated as
    sqrt(K / 2^(m-1)) average walks where that is the smaller estimate, above
    every share measured at m = 12..16 (m = 13, K = 1024: 4.4 s)."""
    monkeypatch.setattr(cli, "BUDGET", 0)
    code, _, err = run_cli(capsys, "rank", "--m", str(m), "--by", "avr", "--k", str(k))
    assert code == 2 and err == _refusal(m, estimate, "average walk", estimate)


@pytest.mark.parametrize("m, k, estimate", [(13, 1025, "3.52"), (16, 8193, "2.75e+03")])
def test_past_the_frontier_counts_every_labels_tables(capsys, monkeypatch, m, k, estimate):
    """A larger K ranks every label from one descent (`construction.rank`),
    whatever K: it counts the tables of every label."""
    monkeypatch.setattr(cli, "BUDGET", 0)
    code, _, err = run_cli(capsys, "rank", "--m", str(m), "--by", "avr", "--k", str(k))
    assert code == 2 and err == _refusal(m, estimate, "difference tables", estimate)


def test_every_labels_tables_cost_less_than_one_walk():
    """The tables of a set of labels never exceed those of every label, so
    no listing by average or beta is estimated above one average walk."""
    from becpolar import synthesis
    for m in range(1, 17):
        units = sum((s / 4096) ** 2 for s in synthesis.descent_tables(m, range(1 << m)))
        tables = cli._seconds(m, {"difference tables": units})["difference tables"]
        assert tables < cli._seconds(m, {"average walk": 1})["average walk"], m


@pytest.mark.parametrize("m, k, estimate", [
    (14, 10, "0.000596"), (16, 10, "0.00238"), (16, 100, "23.8"), (15, 144, "51.3"),
])
def test_the_best_few_count_as_the_frontier_row(capsys, monkeypatch, m, k, estimate):
    """Until x_(m-2) joins the best K, the frontier's own row, (K / 64)^4
    units, is the smaller estimate: measured 0.020, 0.11, 13.2 and 30.9 s."""
    monkeypatch.setattr(cli, "BUDGET", 0)
    code, _, err = run_cli(capsys, "rank", "--m", str(m), "--by", "avr", "--k", str(k))
    assert code == 2 and err == _refusal(m, estimate, "frontier", estimate)


# `rank --by beta=x --k K` ranks by beta, then counts the difference tables
# of the K labels it lists; estimated / measured with --force
BETA_ADMITTED = [
    ("rank", "--m", "14", "--by", "beta=1.22", "--k", "4"),  # 0 / 0.015 s
    ("rank", "--m", "14", "--by", "beta=1.22", "--k", "64"),  # 0.066 / 0.085 s
    ("rank", "--m", "15", "--by", "beta=1.22", "--k", "64"),  # 0.15 / 0.17 s
    ("rank", "--m", "16", "--by", "beta=1.22", "--k", "10"),  # 0.00006 / 0.088 s
    ("rank", "--m", "14", "--by", "beta=1.01", "--k", "103"),  # 22.7 / 19.2 s
    ("rank", "--m", "14", "--by", "beta=1.22", "--k", "1622"),  # 24.7 / 20.2 s
    ("rank", "--m", "15", "--by", "beta=1.01", "--k", "57"),  # 9.35 / 7.1 s
    ("rank", "--m", "16", "--by", "beta=1.01", "--k", "58"),  # 21.5 / 19.6 s
    ("rank", "--m", "16", "--by", "beta=1.22", "--k", "374"),  # 22.6 / 15.8 s
]
BETA_REFUSED = [
    ("rank", "--m", "14", "--by", "beta=1.01", "--k", "104"),  # 25.7 / 20.0 s
    ("rank", "--m", "15", "--by", "beta=1.01", "--k", "58"),  # 37.3 / 26.0 s
    ("rank", "--m", "15", "--by", "beta=1.01", "--k", "120"),  # 236 / 172 s
    ("rank", "--m", "16", "--by", "beta=1.01", "--k", "59"),  # 85.9 / 48.9 s
]


@pytest.fixture
def averages(monkeypatch):
    """Every library call that reads an average patched to raise `Reached`:
    a beta listing ranks before its estimate and reads averages after it."""
    from becpolar import construction, synthesis

    def reached(*args, **kwargs):
        raise Reached
    for module, name in ((synthesis, "average_descent"), (synthesis, "average_numerators"),
                         (construction, "average_numerators")):
        monkeypatch.setattr(module, name, reached)


@pytest.mark.parametrize("argv", BETA_ADMITTED, ids=_case_id)
def test_a_beta_listing_is_admitted_by_its_tables(averages, argv):
    with pytest.raises(Reached):
        cli.main(list(argv))


@pytest.mark.parametrize("argv", BETA_REFUSED, ids=_case_id)
def test_a_beta_listing_is_refused_by_its_tables(capsys, averages, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: m={argv[2]} is estimated at ") and "(difference tables " in err
    with pytest.raises(Reached):
        cli.main([*argv, "--force"])


@pytest.mark.parametrize("by", ["avr", "beta=1.22"])
def test_every_label_is_estimated_by_its_tables(capsys, averages, by):
    """Listing every label by average or by beta counts every label's
    tables, 3.52 s at m = 13 and 32.4 s at m = 14, where one average walk is
    23.5 and 188 s: m = 13 is admitted, and m = 14 refused, as by the walk,
    before any average is read (the beta order is ranked first)."""
    with pytest.raises(Reached):
        cli.main(["rank", "--m", "13", "--by", by])
    code, out, err = run_cli(capsys, "rank", "--m", "14", "--by", by)
    assert code == 2 and out == "" and err == TABLES_REFUSAL
    with pytest.raises(Reached):
        cli.main(["rank", "--m", "14", "--by", by, "--force"])


@pytest.mark.parametrize("m", [6, 8, 10])
def test_difference_tables_count_what_the_descent_builds(monkeypatch, m):
    """`synthesis.descent_tables` against the descent itself: reading the
    same labels, in any order, with repeats, the best by beta, the labels
    `best` reads by average in the order it reads them, and every label
    through `construction.rank`, `_flip_child` builds tables of exactly the
    sizes planned."""
    import random
    from decimal import Decimal

    from becpolar import construction, synthesis
    built, read = [], []
    step, descent = synthesis._flip_child, synthesis.average_descent

    def spy(moments):
        built.append(len(moments) - 1)
        return step(moments)

    def reading(m_):
        numerator, d = descent(m_)

        def read_one(u):
            read.append(u)
            return numerator(u)
        return read_one, d

    def read_all(labels):
        numerator, _ = synthesis.average_descent(m)
        for u in labels:
            numerator(u)
    monkeypatch.setattr(synthesis, "_flip_child", spy)
    monkeypatch.setattr(synthesis, "average_descent", reading)
    rng = random.Random(m)
    beta = construction.rank(construction.Criterion.beta_expansion(Decimal("1.01")), m)
    for run in (lambda: read_all(rng.sample(range(1 << m), 20)),
                lambda: read_all(rng.choices(range(1 << m), k=50)),
                lambda: read_all(beta.order[:40]),
                lambda: construction.best(construction.Criterion.average(), m, 1 << (m - 3)),
                lambda: construction.rank(construction.Criterion.average(), m)):
        built.clear()
        read.clear()
        run()
        assert built and sorted(built) == sorted(synthesis.descent_tables(m, read))
    assert read == list(range(1 << m))


def test_pointwise_rank_builds_one_table_and_integrates_nothing(capsys, monkeypatch):
    """`rank --by p=` scores from one full table, and its averages come from
    the moment recursion, not from integrals of that table."""
    from becpolar import construction, polynomials, synthesis
    built = []
    synth_all = synthesis.synth_all

    def counted(m, *args, **kwargs):
        built.append(m)
        return synth_all(m, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("rank integrated a channel")
    for module in (synthesis, construction):
        monkeypatch.setattr(module, "synth_all", counted)
    for module in (synthesis, polynomials):
        monkeypatch.setattr(module, "integrate01", refuse)
    code, out, _ = run_cli(capsys, "rank", "--m", "5", "--by", "p=1/3")
    assert code == 0 and len(out.splitlines()) == 1 + 32
    assert built == [5]


class TestPoset:
    def test_m2_chain(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "--m", "2", "--relation", "std",
                               "--dot", "-")
        assert code == 0
        assert "u0 -> u1;" in out and "u1 -> u2;" in out and "u2 -> u3;" in out
        assert out.count("->") == 3

    def test_m4_dominance_key_edge(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "--m", "4", "--relation", "dom",
                               "--dot", "-")
        assert code == 0
        assert "u6 -> u9;" in out
        assert 'u6 [label="x1*x2 (6)"];' in out

    def test_node_count(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "--m", "3", "--relation", "w",
                               "--dot", "-")
        assert code == 0
        assert sum(1 for line in out.splitlines() if "[label=" in line) == 8

    def test_m10_is_admitted_and_m11_refused(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "--m", "10", "--relation", "w", "--dot", "-")
        assert code == 0
        assert sum(1 for line in out.splitlines() if "[label=" in line) == 1024
        code, out, err = run_cli(capsys, "poset", "--m", "11", "--relation", "w", "--dot", "-")
        assert code == 2 and out == ""
        assert err == "error: m=11 exceeds exhaustive-scan cap 10\n"

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "poset.dot"
        code, out, _ = run_cli(capsys, "poset", "--m", "2", "--relation", "dom",
                               "--dot", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph")


class TestVerify:
    def test_tables_suite_m5(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "5", "--suite", "tables")
        assert code == 0
        assert "PASS tables/incomparable-pairs m=5" in out
        assert "FAIL" not in out

    def test_reliability_suite_m4(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "4", "--suite", "reliability")
        assert code == 0
        assert "PASS reliability/oracle-equivalence m=4" in out

    def test_orders_suite_m6(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "6", "--suite", "orders")
        assert code == 0
        assert "PASS orders/implication-chain m=6" in out

    def test_identities_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--suite", "identities")
        assert code == 0
        assert "PASS identities/duality m=3" in out

    def test_m1_prints_no_vacuous_threshold_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "1")
        assert code == 0
        assert "identities/threshold-symmetry" not in out
        assert "orders/multiplication-compat" not in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        # sabotage one golden value to confirm FAIL reporting and exit 1
        from becpolar import golden
        monkeypatch.setitem(golden.DISTRIBUTION_FIRST5, 5, (9, 9, 9, 9, 9))
        code, out, _ = run_cli(capsys, "verify", "--m", "5", "--suite", "tables")
        assert code == 1
        assert "FAIL tables/avr-distribution m=5" in out

    def test_builds_one_table(self, capsys, monkeypatch):
        # poset-axioms (m = 5) and oracle-equivalence (m = 4) read no table
        from becpolar import synthesis
        built = []
        synth_all = synthesis.synth_all

        def counted(m, *args, **kwargs):
            built.append(m)
            return synth_all(m, *args, **kwargs)
        monkeypatch.setattr(synthesis, "synth_all", counted)
        code, out, _ = run_cli(capsys, "verify", "--m", "7", "--suite", "all")
        assert code == 0
        assert "PASS orders/poset-axioms m=5" in out
        assert "PASS reliability/oracle-equivalence m=4" in out
        assert built == [7]

    def test_all_suite_exercises_every_operation(self, capsys, monkeypatch):
        from becpolar import orders, reliability, synthesis
        calls: dict[str, int] = {}

        def counted(module, name):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return orig(*args, **kwargs)
            return wrapper

        tracked = [
            (orders, "leq"), (orders, "leq_pointwise"), (orders, "mult_compatible"),
            (orders, "is_decreasing"), (orders, "closure"), (orders, "interval"),
            (orders, "hasse_edges"),
            (reliability, "build_graph"), (reliability, "oracle_path_counts"),
            (reliability, "ni_inclusion_exclusion"), (reliability, "gen_binomial"),
            (reliability, "avr_closed_form"),
            (synthesis, "synth_poly"), (synthesis, "synth_all"), (synthesis, "synth_labels"),
            (synthesis, "channel_threshold"),
            (synthesis, "average_numerators"),
        ]
        for module, name in tracked:
            monkeypatch.setattr(module, name, counted(module, name))
        # leq_pointwise is reached through construction.incomparable_pairs
        code, out, _ = run_cli(capsys, "verify", "--m", "5", "--suite", "all")
        assert code == 0
        missing = [name for _, name in tracked if calls.get(name, 0) == 0]
        assert not missing, f"operations never exercised: {missing}"


class TestDistributionPlot:
    def test_distribution_m5(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "--m", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bucket_low,bucket_high,count"
        assert [int(l.split(",")[2]) for l in lines[1:6]] == [2, 3, 4, 4, 3]
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 32

    def test_distribution_m7(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "--m", "7")
        assert code == 0
        lines = out.splitlines()
        assert [int(l.split(",")[2]) for l in lines[1:6]] == [11, 13, 14, 13, 13]

    def test_avrplot(self, capsys, tmp_path):
        target = tmp_path / "avr.csv"
        code, _, _ = run_cli(capsys, "avrplot", "--m", "3", "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "u,avr"
        assert len(lines) == 9
        assert lines[1] == "0,0.111111"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("synth", "--m", "3"),
        ("rank", "--m", "3", "--by", "avr", "--format", "json"),
        ("poset", "--m", "3", "--relation", "dom", "--dot", "-"),
        ("distribution", "--m", "4"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
