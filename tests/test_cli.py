"""Command-line interface: flows and exit codes."""

import csv
import errno
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import edit, reference_sale_warehouse
from xwbench import harness, xmlio
from xwbench.cli import main
from xwbench.harness import DatasetSpec, ensure_dataset
from xwbench.xmlio import STAMP_FILE, read_metadata, write_warehouse

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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

    def test_negative_nonstrict_number_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("generate", "--facts", "10", "--nonstrict-number", "-3",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            "xwbench generate: nonstrict_number must be >= 0, got -3\n"
        assert not out.exists()

    def test_missing_arguments_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--facts", "10")
        assert exc.value.code == 1

    def test_unwritable_output_is_data_error(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        code = run_cli("generate", "--facts", "5", "--out", str(blocker / "sub"))
        assert code == 2

    def test_failed_regeneration_leaves_no_readable_mix(self, tmp_path, monkeypatch,
                                                        capsys):
        """A generation that fails partway over an earlier dataset, here at
        d_date.xml, leaves a directory that no reader accepts: the metadata
        is removed before the first document and written last."""
        out = str(tmp_path / "out")
        assert run_cli("generate", "--facts", "100", "--seed", "1", "--out", out) == 0
        real_write_dimension = xmlio.write_dimension

        def full_at_date(schema, instances, out_dir):
            if schema.id == "date":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_dimension(schema, instances, out_dir)

        with monkeypatch.context() as patch:
            patch.setattr(xmlio, "write_dimension", full_at_date)
            assert run_cli("generate", "--facts", "50", "--seed", "2", "--out", out) == 2
        capsys.readouterr()
        for query in ("D1", "D4"):
            assert run_cli("run", "--in", out, "--query", query) == 2
            assert "dw-model.xml" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("explode")
        assert exc.value.code == 1

    def test_runs_as_a_module(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "xwbench", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "generate" in done.stdout and "campaign" in done.stdout


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
        assert all(row["incomplete_pct"] == "50" for row in rows)

    def test_run_single_query(self, cli_dataset, capsys):
        assert run_cli("run", "--in", cli_dataset, "--query", "Q22") == 0
        out = capsys.readouterr().out
        assert "Q22" in out and "checks ok" in out

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

    def test_interrupt_keeps_the_rows_of_finished_queries(self, cli_dataset, tmp_path,
                                                          monkeypatch, capsys):
        run_cell = harness.run_cell
        calls = []

        def interrupted_at_the_third(*args, **kwargs):
            calls.append(args[3].id)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run_cell(*args, **kwargs)

        monkeypatch.setattr(harness, "run_cell", interrupted_at_the_third)
        report = str(tmp_path / "report.csv")
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--in", cli_dataset, "--report", report)
        assert capsys.readouterr().out.count("checks ok") == 2
        assert [row["query"] for row in _report_rows(report)] == calls[:2]

    def test_report_to_an_empty_file_gets_its_header(self, cli_dataset, tmp_path):
        """An empty existing report file, as mktemp makes, gets the header
        before the first row, and a second run appends below it."""
        report = tmp_path / "report.csv"
        report.write_bytes(b"")
        for query in ("D1", "D2"):
            assert run_cli("run", "--in", cli_dataset, "--query", query,
                           "--report", str(report)) == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == harness.REPORT_COLUMNS
        assert [row[harness.REPORT_COLUMNS.index("query")] for row in rows[1:]] == ["D1", "D2"]

    def test_dataset_is_named_by_its_real_directory(self, cli_dataset, tmp_path, monkeypatch):
        monkeypatch.chdir(cli_dataset)
        report = str(tmp_path / "report.csv")
        for in_dir in (".", "./", cli_dataset + "/"):
            assert run_cli("run", "--in", in_dir, "--query", "D1", "--report", report) == 0
        assert [row["dataset"] for row in _report_rows(report)] == ["complex"] * 3

    def test_standalone_pedersen_rows_report_no_overhead(self, cli_dataset, tmp_path):
        """`run` times no transform: a pedersen row leaves the overhead
        empty, and a qbs row reports none, as in a campaign."""
        ped = str(tmp_path / "ped")
        assert run_cli("transform", "--in", cli_dataset, "--out", ped) == 0
        report = str(tmp_path / "report.csv")
        for in_dir, engine in ((ped, "pedersen"), (cli_dataset, "qbs")):
            assert run_cli("run", "--in", in_dir, "--engine", engine, "--query", "D1",
                           "--report", report) == 0
        assert [row["overhead_ms"] for row in _report_rows(report)] == ["", "0.000"]

    def test_unknown_query_is_data_error(self, cli_dataset):
        assert run_cli("run", "--in", cli_dataset, "--query", "Q99") == 2


def _report_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


PROVENANCE = ("regime", "facts", "incomplete_pct", "nonstrict_pct", "nonstrict_num")


class TestProvenance:
    def test_generate_writes_the_campaign_stamp(self, cli_dataset, tmp_path):
        """`generate` stamps its output as ensure_dataset does, so a campaign
        reuses it under the same id and parameters."""
        spec = DatasetSpec("complex", 200, incomplete=50, nonstrict=50,
                           nonstrict_number=2, seed=3)
        fresh = ensure_dataset(spec, str(tmp_path / "fresh"))
        assert (pathlib.Path(cli_dataset, STAMP_FILE).read_text(encoding="utf-8")
                == pathlib.Path(fresh, STAMP_FILE).read_text(encoding="utf-8"))
        before = os.stat(os.path.join(cli_dataset, "f_sale.xml")).st_mtime_ns
        assert ensure_dataset(spec, os.path.dirname(cli_dataset)) == cli_dataset
        assert os.stat(os.path.join(cli_dataset, "f_sale.xml")).st_mtime_ns == before

    def test_run_reports_the_stamped_parameters(self, cli_dataset, tmp_path):
        report = str(tmp_path / "report.csv")
        assert run_cli("run", "--in", cli_dataset, "--query", "D1",
                       "--report", report) == 0
        (row,) = _report_rows(report)
        assert [row[c] for c in PROVENANCE] == ["complex", "200", "50", "50", "2"]

    @pytest.mark.parametrize("stamp", [None, "{", '{"fact_number": true, "incomplete_percentage": '
                                       '"lots", "nonstrict_percentage": -4, "nonstrict_number": '
                                       '0, "seed": 1}'],
                             ids=["missing", "unreadable", "refused-by-the-generator"])
    def test_run_without_a_stamp_reads_only_the_grouped_dimension(self, cli_dataset, tmp_path,
                                                                  stamp, parse_counts):
        """Without a readable stamp the regime and parameters are unknown:
        they stay empty, and no document but the query's is read for them."""
        path = pathlib.Path(cli_dataset, STAMP_FILE)
        if stamp is None:
            path.unlink()
        else:
            path.write_text(stamp, encoding="utf-8")
        report = str(tmp_path / "report.csv")
        assert run_cli("run", "--in", cli_dataset, "--query", "D1",
                       "--report", report) == 0
        assert parse_counts == {"date": 1, "facts": 1, "metadata": 1}
        (row,) = _report_rows(report)
        assert [row[c] for c in PROVENANCE] == ["", "", "", "", ""]

    def test_transform_output_reports_the_raw_parameters(self, tmp_path, monkeypatch):
        """`run` on a transform's output reports the parameters of the data
        it was transformed from, on either engine."""
        monkeypatch.chdir(tmp_path)
        assert run_cli("generate", "--facts", "200", "--incomplete", "50", "--nonstrict", "50",
                       "--nonstrict-number", "4", "--seed", "3", "--out", "c50") == 0
        assert run_cli("transform", "--in", "c50", "--out", "c50-ped") == 0
        for in_dir, engine in (("c50", "qbs"), ("c50-ped", "pedersen"), ("c50-ped", "qbs")):
            assert run_cli("run", "--in", in_dir, "--engine", engine, "--query", "D1",
                           "--report", "r.csv") == 0
        assert [[row[c] for c in ("dataset", *PROVENANCE)] for row in _report_rows("r.csv")] \
            == [[name, "complex", "200", "50", "50", "4"] for name in ("c50", "c50-ped", "c50-ped")]

    def test_transform_over_a_stamped_dataset_stamps_the_transform_side(self, tmp_path):
        """A transform into a generated dataset's directory replaces its
        stamp with one naming the transform's input data: `run` reports
        that data's parameters, and a campaign never takes the transformed
        documents for the dataset that was there, nor for its input."""
        data = tmp_path / "d"
        spec = DatasetSpec("x-pedersen", 200, seed=1)
        stale = ensure_dataset(spec, str(data))
        assert run_cli("generate", "--facts", "100", "--incomplete", "50",
                       "--nonstrict", "50", "--nonstrict-number", "4", "--seed", "3",
                       "--out", str(data / "x")) == 0
        assert run_cli("transform", "--in", str(data / "x"), "--out", stale) == 0
        x = harness.read_stamp(str(data / "x"))[0]
        assert harness.read_stamp(stale) == (x, True)
        report = str(tmp_path / "report.csv")
        assert run_cli("run", "--in", stale, "--query", "D1", "--report", report) == 0
        (row,) = _report_rows(report)
        assert [row[c] for c in PROVENANCE] == ["complex", "100", "50", "50", "4"]
        assert ensure_dataset(spec, str(data)) == stale
        assert not any(level.endswith("_fused") for schema in read_metadata(stale).dimensions
                       for level in schema.levels)
        assert harness.read_stamp(stale) == (spec.config(None), False)

    def test_stampless_or_refused_transform_leaves_no_stamp(self, cli_dataset, tmp_path):
        """An input without a stamp, and a refused transform of a stamped
        one, each leave the output without a stamp, though it held one."""
        stampless, refused = str(tmp_path / "stampless"), str(tmp_path / "refused")
        for in_dir in (stampless, refused):
            write_warehouse(reference_sale_warehouse(), in_dir)
        shutil.copy(os.path.join(cli_dataset, STAMP_FILE), refused)
        edit(os.path.join(refused, "d_supplier.xml"), "FRANCE", "Other")
        out = str(tmp_path / "out")
        for in_dir, code in ((stampless, 0), (refused, 2)):
            assert run_cli("transform", "--in", cli_dataset, "--out", out) == 0
            assert harness.read_stamp(out) == (harness.read_stamp(cli_dataset)[0], True)
            assert run_cli("transform", "--in", in_dir, "--out", out) == code
            assert not os.path.exists(os.path.join(out, STAMP_FILE))


class TestOracleCommand:
    def test_prints_groups(self, cli_dataset, capsys):
        assert run_cli("oracle", "--in", cli_dataset, "--query", "Q24") == 0
        out = capsys.readouterr().out
        assert "groups" in out and "support=" in out

    def test_prints_amounts_in_currency_units(self, reference_dir, capsys):
        """The reference sale's 280000 cents print as 2800."""
        assert run_cli("oracle", "--in", reference_dir, "--query", "Q21") == 0
        assert capsys.readouterr().out == (
            "Q21: 1 facts, 1 groups\n"
            "  [part#1 | customer#1 | supplier#1 | date#1] support=1 "
            "f_quantity=100, f_totalamount=2800\n")

    def test_prints_every_digit(self, tmp_path, capsys):
        """Sums beyond six significant digits print exactly, the amount's
        1244953 cents as 12449.53, and an average at full precision."""
        out = str(tmp_path / "wh")
        warehouse = reference_sale_warehouse()
        sale = warehouse.facts[0]
        sale.f_quantity, sale.f_totalamount = 1234567, 1244953
        write_warehouse(warehouse, out)
        assert run_cli("oracle", "--in", out, "--query", "D1") == 0
        assert capsys.readouterr().out == (
            "D1: 1 facts, 1 groups\n"
            "  [1998-06-25] support=1 f_quantity=1234567, f_totalamount=12449.53\n")
        assert run_cli("oracle", "--in", out, "--query", "Q24") == 0
        assert capsys.readouterr().out.endswith(" support=1 f_totalamount=12449.53\n")

    def test_dimension_that_is_not_well_formed_is_data_error(self, reference_dir, capsys):
        """The oracle reads only what the readers accept: a dimension document
        that is not well-formed exits 2 naming its line, as `run` does on a
        query grouping the dimension."""
        edit(os.path.join(reference_dir, "d_part.xml"), "<type3>LARGE</type3>",
             "<type3>LARGE</type2>")
        for command in ("oracle", "run"):
            assert run_cli(command, "--in", reference_dir, "--query", "D2") == 2
            assert "d_part.xml: line 5: " in capsys.readouterr().err


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

    def test_dataset_that_cannot_be_generated_fails_only_its_rows(self, tmp_path, capsys):
        """A plain file where dataset `tiny`'s directory belongs fails its
        rows under every engine; dataset `other` still runs, and only it is
        listed with its sizes."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "tiny").write_text("")
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(json.dumps({
            "datasets": [{"id": "tiny", "facts": 10}, {"id": "other", "facts": 10}],
            "queries": ["D1"], "repeats": 1, "warmup": 0}))
        report = tmp_path / "r.csv"
        assert run_cli("campaign", "--matrix", str(matrix_path), "--report", str(report),
                       "--data-dir", str(data)) == 0
        assert capsys.readouterr().out == f"campaign: 4 cells -> {report} (2 failed)\n"
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["dataset"], row["engine"], row["chk_grand"]) for row in rows] == [
            ("tiny", "qbs", "ERR"), ("tiny", "pedersen", "ERR"),
            ("other", "qbs", "1"), ("other", "pedersen", "1")]
        with open(tmp_path / "r-datasets.csv", newline="") as fh:
            assert [row["dataset"] for row in csv.DictReader(fh)] == ["other"]

    def test_unwritable_report_stops_before_any_dataset(self, tmp_path, capsys):
        """The report's header is written before any dataset is generated."""
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text(json.dumps({
            "datasets": [{"id": "t", "facts": 10}], "engines": ["qbs"], "queries": ["D1"]}))
        data = tmp_path / "data"
        assert run_cli("campaign", "--matrix", str(matrix_path), "--report",
                       str(tmp_path / "no-such-dir" / "r.csv"), "--data-dir", str(data)) == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not (data / "t").exists()
