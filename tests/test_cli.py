"""Command-line interface: golden outputs, formats, determinism, exit codes."""

import json

import pytest

from becpolar import cli


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

    def test_all_channels_csv(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--m", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u,i,coeff,path_count"
        assert len(lines) == 1 + 2 * 3  # two channels, three rows each

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

    def test_bad_criterion(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--m", "3", "--by", "zeta=2")
        assert code == 2

    def test_p_must_be_interior(self, capsys):
        code, _, _ = run_cli(capsys, "rank", "--m", "3", "--by", "p=1")
        assert code == 2

    @pytest.mark.parametrize("by", ["p=1/0", "beta=abc", "beta=NaN", "beta=Infinity"])
    def test_bad_number_is_usage_error(self, capsys, by):
        code, _, err = run_cli(capsys, "rank", "--m", "3", "--by", by)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("synth", "--m", "10", "--u", "5000"),
    ("rank", "--m", "10", "--by", "avr", "--k", "5000"),
])
def test_bad_u_and_k_exit_before_synthesis(capsys, monkeypatch, argv):
    from becpolar import synthesis

    def refuse(*args, **kwargs):
        raise AssertionError("synthesis ran before the usage check")
    monkeypatch.setattr(synthesis, "synth_all", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "out of range" in err


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

    def test_failure_exit_code(self, capsys, monkeypatch):
        # sabotage one golden value to confirm FAIL reporting and exit 1
        from becpolar import golden
        monkeypatch.setitem(golden.DISTRIBUTION_FIRST5, 5, (9, 9, 9, 9, 9))
        code, out, _ = run_cli(capsys, "verify", "--m", "5", "--suite", "tables")
        assert code == 1
        assert "FAIL tables/avr-distribution m=5" in out

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
            (orders, "leq_weak"), (orders, "leq_std"), (orders, "leq_dominance"),
            (orders, "leq_pointwise"), (orders, "mult_compatible"),
            (orders, "is_decreasing"), (orders, "closure"), (orders, "interval"),
            (orders, "hasse_edges"),
            (reliability, "build_graph"), (reliability, "oracle_path_counts"),
            (reliability, "ni_inclusion_exclusion"), (reliability, "gen_binomial"),
            (reliability, "avr_closed_form"),
            (synthesis, "synth_poly"), (synthesis, "synth_all"),
            (synthesis, "dual_poly"), (synthesis, "threshold_estimate"),
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
