"""Command-line interface: flows and exit codes."""

import csv
import json
import os

import pytest

from xwbench.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_generates_six_documents(self, tmp_path, capsys):
        out = tmp_path / "wh"
        code = run_cli("generate", "--facts", "50", "--seed", "7",
                       "--out", str(out))
        assert code == 0
        for name in ("dw-model.xml", "f_sale.xml", "d_part.xml", "d_customer.xml",
                     "d_supplier.xml", "d_date.xml"):
            assert (out / name).exists()
        assert "50 facts" in capsys.readouterr().out

    def test_invalid_percentage_is_usage_error(self, tmp_path):
        code = run_cli("generate", "--facts", "10", "--nonstrict", "50",
                       "--nonstrict-number", "1", "--out", str(tmp_path / "x"))
        assert code == 1

    def test_missing_arguments_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--facts", "10")
        assert exc.value.code == 1

    def test_unwritable_output_is_data_error(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        code = run_cli("generate", "--facts", "5", "--out", str(blocker / "sub"))
        assert code == 2

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("explode")
        assert exc.value.code == 1


@pytest.fixture()
def cli_dataset(tmp_path):
    out = tmp_path / "complex"
    assert run_cli("generate", "--facts", "200", "--incomplete", "50",
                   "--nonstrict", "50", "--nonstrict-number", "2",
                   "--seed", "3", "--out", str(out)) == 0
    return str(out)


class TestTransformAndRun:
    def test_transform_then_pedersen_run(self, cli_dataset, tmp_path, capsys):
        ped = str(tmp_path / "ped")
        assert run_cli("transform", "--in", cli_dataset, "--out", ped) == 0
        assert "covered" in capsys.readouterr().out
        report = str(tmp_path / "report.csv")
        assert run_cli("run", "--in", ped, "--engine", "pedersen",
                       "--query", "all", "--report", report) == 0
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {row["engine"] for row in rows} == {"pedersen"}
        assert all(row["chk_grand"] == "1" for row in rows)
        assert all(row["incomplete_pct"] == "" for row in rows)

    def test_transform_missing_input_is_data_error(self, tmp_path):
        assert run_cli("transform", "--in", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "out")) == 2

    def test_run_single_query(self, cli_dataset, capsys):
        assert run_cli("run", "--in", cli_dataset, "--query", "Q22") == 0
        out = capsys.readouterr().out
        assert "Q22" in out and "checks ok" in out

    def test_pedersen_on_untransformed_data_is_data_error(self, cli_dataset):
        assert run_cli("run", "--in", cli_dataset, "--engine", "pedersen",
                       "--query", "D4") == 2

    def test_naive_engine_fails_strict(self, cli_dataset, capsys):
        assert run_cli("run", "--in", cli_dataset, "--engine", "naive",
                       "--query", "D4") == 0
        assert "CHECKS FAILED" in capsys.readouterr().out
        assert run_cli("run", "--in", cli_dataset, "--engine", "naive",
                       "--query", "D4", "--strict") == 3

    def test_custom_workload_file(self, cli_dataset, tmp_path, capsys):
        wl = tmp_path / "extra.workload"
        wl.write_text("X9 SUM f_quantity date.year\n")
        assert run_cli("run", "--in", cli_dataset, "--workload", str(wl),
                       "--query", "X9") == 0
        assert "X9" in capsys.readouterr().out

    def test_measures_in_any_order(self, cli_dataset, tmp_path, capsys):
        wl = tmp_path / "reversed.workload"
        wl.write_text("X SUM f_totalamount,f_quantity date.day\n")
        assert run_cli("run", "--in", cli_dataset, "--workload", str(wl)) == 0
        assert "checks ok" in capsys.readouterr().out

    def test_failed_query_keeps_every_row(self, cli_dataset, tmp_path, capsys):
        wl = tmp_path / "mixed.workload"
        wl.write_text("X1 SUM f_quantity date.week\nX2 SUM f_quantity date.year\n")
        report = str(tmp_path / "report.csv")
        assert run_cli("run", "--in", cli_dataset, "--workload", str(wl),
                       "--report", report) == 2
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["query"] for row in rows] == ["X1", "X2"]
        assert rows[0]["chk_grand"] == "ERR"
        assert rows[1]["chk_grand"] == "1"
        assert "X1" in capsys.readouterr().err

    def test_unknown_query_is_data_error(self, cli_dataset):
        assert run_cli("run", "--in", cli_dataset, "--query", "Q99") == 2


class TestOracleCommand:
    def test_prints_groups(self, cli_dataset, capsys):
        assert run_cli("oracle", "--in", cli_dataset, "--query", "Q24") == 0
        out = capsys.readouterr().out
        assert "groups" in out and "support=" in out

    def test_dangling_dimref_is_data_error(self, reference_dir, capsys):
        path = os.path.join(reference_dir, "f_sale.xml")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("idref='part#1'", "idref='part#99'"))
        assert run_cli("oracle", "--in", reference_dir, "--query", "D2") == 2
        assert "'part#99'" in capsys.readouterr().err

    def test_malformed_sale_is_data_error(self, reference_dir, capsys):
        path = os.path.join(reference_dir, "f_sale.xml")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("<f_quantity>100", "<f_quantity>many"))
        assert run_cli("oracle", "--in", reference_dir, "--query", "D2") == 2
        assert "'sale#1'" in capsys.readouterr().err


class TestCampaignCommand:
    def test_runs_matrix_file(self, tmp_path, capsys):
        matrix = {
            "datasets": [{"id": "t", "facts": 60, "seed": 5}],
            "engines": ["qbs"],
            "matching": ["hash"],
            "queries": ["D1"],
            "repeats": 1,
            "warmup": 0,
        }
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(json.dumps(matrix))
        report = tmp_path / "r.csv"
        assert run_cli("campaign", "--matrix", str(matrix_path), "--report",
                       str(report), "--data-dir", str(tmp_path / "data")) == 0
        assert report.exists()
        assert os.path.exists(tmp_path / "r-datasets.csv")
        assert "1 cells" in capsys.readouterr().out
