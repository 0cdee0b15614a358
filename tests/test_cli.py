"""Tests for the command-line interface."""

import pytest

from entnet.cli import run_subcommand


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run_subcommand(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestBasics:
    def test_threshold_rows(self, tmp_path):
        code, text = run_to_file(tmp_path, "t.csv", ["threshold", "--n", "2..4"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("# entnet=")
        assert lines[1] == "n,x_thres,f_thres,residual"
        assert len(lines) == 5
        f2 = float(lines[2].split(",")[2])
        assert 0.850 <= f2 <= 0.851

    def test_snapshot_qfi(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "s.csv", ["snapshot-qfi", "--s", "5", "--partition", "3,2", "--f", "0.9"]
        )
        assert code == 0
        value = float(text.strip().splitlines()[-1].split(",")[-1])
        assert value == pytest.approx(0.2906594, abs=1e-6)

    def test_partition_mixed(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "p.csv", ["partition", "--s", "3", "--fidelities", "1.0,1.0,0.3"]
        )
        assert code == 0
        assert text.strip().splitlines()[-1].split(",")[4] == "2"

    def test_partition_mixed_past_the_old_cap(self, tmp_path):
        fids = ",".join(str(round(0.85 + 0.007 * i, 3)) for i in range(20))
        code, text = run_to_file(tmp_path, "p.csv", ["partition", "--s", "20", "--fidelities", fids])
        assert code == 0
        assert text.strip().splitlines()[-1].split(",")[6] == str(20 * 19 // 2)

    def test_latency_all_cases(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "l.csv",
            ["latency", "--distance", "1000", "--period", "1e-5", "--k", "3", "--s", "4"],
        )
        assert code == 0
        assert len(text.strip().splitlines()) == 6  # meta + header + 4 cases

    def test_protocol_sweep_dead_network(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "d.csv",
            ["protocol-sweep", "--protocol", "immediate", "--s", "5", "--p", "0.0", "--f", "1.0"],
        )
        assert code == 0
        mean = float(text.strip().splitlines()[-1].split(",")[6])
        assert mean == pytest.approx(0.2, abs=1e-15)

    def test_vtmbl_default_is_the_series(self, tmp_path):
        # the closed form cancels catastrophically here and printed 0.215760010163
        code, text = run_to_file(
            tmp_path, "v.csv",
            ["protocol-sweep", "--protocol", "vtmbl", "--s", "40", "--p", "0.1", "--mu", "20"],
        )
        assert code == 0
        row = text.strip().splitlines()[-1].split(",")
        assert (row[5], row[6]) == ("series", "0.0646239617193")

    def test_distill_distribution(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "di.csv",
            ["distill", "--f", "0.7", "--links", "3", "--policy", "keep"],
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[2:]]
        assert float(rows[1][0]) == pytest.approx(0.7, abs=1e-12)
        assert float(rows[1][1]) == pytest.approx(0.32, abs=1e-12)


class TestExitCodes:
    def test_success(self, capsys):
        assert run_subcommand(["threshold", "--n", "2"]) == 0
        capsys.readouterr()

    def test_unknown_reproduce_id(self, capsys):
        assert run_subcommand(["reproduce", "mystery"]) == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert run_subcommand([]) == 2
        capsys.readouterr()

    def test_bad_value(self, capsys):
        assert run_subcommand(["snapshot-qfi", "--s", "5", "--partition", "9"]) == 2
        capsys.readouterr()

    def test_partition_without_sensors(self, capsys):
        assert run_subcommand(["partition", "--m", "0", "--s", "0"]) == 2
        capsys.readouterr()

    def test_mc_without_seed(self, capsys):
        code = run_subcommand(
            ["protocol-sweep", "--protocol", "immediate", "--method", "mc",
             "--p", "0.5", "--trials", "10"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["snapshot-qfi", "--s", "5"],
            ["threshold", "--n", "2"],
            ["partition", "--m", "3"],
            ["distill", "--f", "0.9", "--links", "2"],
            ["measure-cfi", "--s", "3", "--max"],
            ["latency", "--distance", "1000", "--period", "1e-5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_monte_carlo_flags_only_where_read(self, capsys, argv, flag):
        assert run_subcommand(argv) == 0
        assert run_subcommand(argv + [flag, "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["distill", "--f", "0.9", "--links", "4", "--p", "nan", "--k", "3"],
            ["distill", "--f", "0.9", "--links", "4", "--p", "0.5"],
            ["distill", "--f", "0.9", "--links", "4", "--k", "3"],
            ["snapshot-qfi", "--s", "3", "--partition", "-", "--f", "nan"],
            ["measure-cfi", "--s", "3", "--partition", "-", "--f", "inf", "--max"],
            ["protocol-sweep", "--protocol", "ftmbl", "--p", "0.5", "--method", "mc",
             "--trials", "1", "--seed", "3"],
        ],
        ids=["links-and-p-k", "links-and-p", "links-and-k", "snapshot-f-nan",
             "measure-f-inf", "one-trial"],
    )
    def test_unread_or_invalid_flags_are_rejected(self, capsys, argv):
        assert run_subcommand(argv) == 2
        capsys.readouterr()

    def test_quarter_fidelity_large_groups(self, tmp_path, capsys):
        # at x = 0 both GHZ weights underflow to 0 from n = 1075 on
        code, text = run_to_file(tmp_path, "p.csv", ["partition", "--m", "1075", "--f", "0.25"])
        assert code == 0
        assert text.strip().splitlines()[-1].split(",")[5] == "0.00093023255814"
        code, text = run_to_file(
            tmp_path, "s.csv",
            ["snapshot-qfi", "--s", "1100", "--partition", "1100", "--f", "0.25"],
        )
        assert code == 0
        assert text.strip().splitlines()[-1].split(",")[3] == "0"
        # the binomial pmf past S ~ 1030 still overflows (exit 3); never a traceback
        code = run_subcommand(
            ["protocol-sweep", "--protocol", "ftmbl", "--s", "1100", "--p", "1",
             "--f", "0.25", "--policy", "optimal"]
        )
        assert code in (0, 3)
        capsys.readouterr()

    def test_numeric_failure_is_exit_3(self, capsys):
        # waiting forever: mu can never be reached at p=0 -> ValueError at
        # validation (2); instead force a convergence failure via tiny p
        code = run_subcommand(
            ["protocol-sweep", "--protocol", "vtmbl", "--mu", "5", "--s", "5",
             "--p", "1e-300", "--f", "1.0", "--method", "series"]
        )
        assert code == 3
        capsys.readouterr()


class TestDeterminism:
    def test_reproduce_fig2_thread_independent(self, tmp_path):
        _, a = run_to_file(tmp_path, "a.csv", ["reproduce", "fig2", "--threads", "1"])
        _, b = run_to_file(tmp_path, "b.csv", ["reproduce", "fig2", "--threads", "4"])
        assert a == b
        assert len(a.splitlines()) == 2 + 5 * 51

    def test_mc_sweep_thread_independent(self, tmp_path):
        argv = ["protocol-sweep", "--protocol", "ftmbl", "--s", "5", "--p", "0.5",
                "--f", "1.0", "--k", "2", "--method", "mc", "--trials", "100000",
                "--seed", "7"]
        _, a = run_to_file(tmp_path, "a.csv", argv + ["--threads", "1"])
        _, b = run_to_file(tmp_path, "b.csv", argv + ["--threads", "3"])
        assert a == b


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2..3\n# comment line\n")
        out1 = tmp_path / "one.csv"
        assert run_subcommand(["threshold", "--config", str(cfg), "--out", str(out1)]) == 0
        assert len(out1.read_text().strip().splitlines()) == 4
        out2 = tmp_path / "two.csv"
        code = run_subcommand(
            ["threshold", "--config", str(cfg), "--n", "2..5", "--out", str(out2)]
        )
        assert code == 0
        assert len(out2.read_text().strip().splitlines()) == 6

    def test_missing_config_file(self, capsys):
        assert run_subcommand(["threshold", "--config", "/nonexistent.cfg", "--n", "2"]) == 2
        capsys.readouterr()


class TestReproduceSchemas:
    @pytest.mark.parametrize(
        "rid,header",
        [
            ("fig5", "n,x_thres,f_thres"),
            ("table1", "region,f_representative,m,partition"),
            ("table2", "m,f,partition"),
        ],
    )
    def test_headers(self, tmp_path, rid, header):
        code, text = run_to_file(tmp_path, f"{rid}.csv", ["reproduce", rid])
        assert code == 0
        assert text.splitlines()[1] == header

    def test_table2_matches_published_grid(self, tmp_path):
        code, text = run_to_file(tmp_path, "t2.csv", ["reproduce", "table2"])
        assert code == 0
        rows = {tuple(line.split(",")[:2]): line.split(",")[2]
                for line in text.strip().splitlines()[2:]}
        assert rows[("10", "0.9")] == "5+5"
        assert rows[("20", "0.88")] == "4+4+4+4+4"
        assert rows[("15", "0.94")] == "8+7"

    def test_table1_matches_published_grid(self, tmp_path):
        code, text = run_to_file(tmp_path, "t1.csv", ["reproduce", "table1"])
        assert code == 0
        cells = {}
        for line in text.strip().splitlines()[2:]:
            region, _, m, partition = line.split(",")
            cells[(int(region), int(m))] = partition
        expected = {
            (1, 2): "-", (1, 3): "-", (1, 4): "-", (1, 5): "-",
            (2, 2): "-", (2, 3): "3", (2, 4): "3", (2, 5): "3",
            (3, 2): "2", (3, 3): "3", (3, 4): "3", (3, 5): "3+2",
            (4, 2): "2", (4, 3): "3", (4, 4): "4", (4, 5): "3+2",
            (5, 2): "2", (5, 3): "3", (5, 4): "4", (5, 5): "4",
            (6, 2): "2", (6, 3): "3", (6, 4): "4", (6, 5): "5",
        }
        assert cells == expected
