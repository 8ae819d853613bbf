import gc
import json

import pytest

from stirling_complexes import PlanVerification
from stirling_complexes.cli import EXIT_INTERNAL, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_tsv(text):
    rows = {}
    for line in text.strip().splitlines():
        key, value = line.split("\t", 1)
        rows[key] = value
    return rows


class TestCount:
    def test_two_one_family_report(self, capsys):
        code, out, _ = run(capsys, "count", "--graph", "K4", "--colors", "2,1,1,1")
        report = json.loads(out)
        assert code == 0
        assert report["f_vector"] == ["108", "288"]
        assert report["formula"]["agree"] is True
        assert report["formula"]["wedge_count"] == "181"

    def test_uniform_family_report(self, capsys):
        code, out, _ = run(capsys, "count", "--graph", "T4", "--colors", "3,3,3")
        report = json.loads(out)
        assert code == 0
        assert report["f_vector"][:3] == ["60", "126", "72"]
        assert report["formula"]["family"] == "uniform"
        assert report["formula"]["agree"] is True

    def test_empty_complex_report(self, capsys):
        code, out, _ = run(capsys, "count", "--graph", "P3", "--colors", "1,1")
        report = json.loads(out)
        assert code == 0
        assert report["empty"] is True and report["f_vector"] == ["0"]

    def test_formats_carry_identical_numbers(self, capsys):
        _, json_out, _ = run(capsys, "count", "--graph", "K4", "--colors", "2,1,1,1")
        _, tsv_out, _ = run(
            capsys, "count", "--graph", "K4", "--colors", "2,1,1,1", "--format", "tsv"
        )
        report = json.loads(json_out)
        rows = parse_tsv(tsv_out)
        assert rows["f_vector"] == ",".join(report["f_vector"])
        assert rows["formula_f_vector"] == ",".join(report["formula"]["f_vector"])
        assert rows["formula_wedge_count"] == report["formula"]["wedge_count"]
        assert rows["euler_characteristic"] == report["euler_characteristic"]
        assert rows["n"] == report["n"] and rows["m"] == report["m"]

    def test_graph_file_source(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "count", "--graph-file", str(path), "--colors", "2,2,1")
        assert code == 0
        assert json.loads(out)["f_vector"] == ["21", "32", "10"]

    def test_cover_off(self, capsys):
        code, out, _ = run(
            capsys, "count", "--graph", "T4", "--colors", "1,1", "--no-cover"
        )
        assert code == 0
        assert json.loads(out)["f_vector"] == ["12", "12"]


class TestParserReuse:
    def test_count_leaves_nothing_for_the_cycle_collector(self, capsys):
        """main builds its parser on the first call and reuses it, so a later
        call leaves no argparse cycles behind.  A json report would still
        leave the cycles of the standard library's indenting json encoder."""
        argv = ["count", "--graph", "C7", "--colors", "3,3,2", "--format", "tsv"]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumerate:
    def test_dimension_filter(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--graph", "P3", "--colors", "2,2,1", "--dim", "2"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_one_cells_of_star(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--graph", "T4", "--colors", "3,2", "--dim", "1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_empty_complex(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--graph", "P3", "--colors", "1,1")
        assert code == 0 and out.strip() == ""


class TestComponents:
    def test_star_two_colors(self, capsys):
        code, out, _ = run(capsys, "components", "--graph", "T4", "--colors", "3,2")
        report = json.loads(out)
        assert code == 0
        assert report["components"] == "3"
        assert report["component_sizes"] == ["4", "4", "4"]

    def test_empty_complex_exit(self, capsys):
        code, _, err = run(capsys, "components", "--graph", "P3", "--colors", "1,1")
        assert code == 3 and "empty" in err

    def test_skeleton_export(self, capsys, tmp_path):
        base = tmp_path / "sk"
        code, _, _ = run(
            capsys,
            "components",
            "--graph",
            "T4",
            "--colors",
            "3,2",
            "--export-skeleton",
            str(base),
        )
        assert code == 0
        edge_text = base.with_suffix(".edgelist").read_text()
        assert edge_text.splitlines()[0] == "12 9"
        assert len(base.with_suffix(".nodes").read_text().strip().splitlines()) == 12


class TestPlanAndVerify:
    START = "{0,1}|{0,2}|{0}"
    END = "{1,2}|{0,2}|{2}"

    def test_round_trip(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.txt"
        code, _, _ = run(
            capsys,
            "plan",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--start",
            self.START,
            "--end",
            self.END,
            "--out",
            str(plan_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "verify",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--plan-file",
            str(plan_file),
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_identity_plan_is_empty(self, capsys):
        code, out, _ = run(
            capsys,
            "plan",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--start",
            self.START,
            "--end",
            self.START,
        )
        assert code == 0
        assert out.strip() == self.START

    def test_bfs_mode_unreachable(self, capsys):
        code, _, err = run(
            capsys,
            "plan",
            "--graph",
            "T4",
            "--colors",
            "3,2",
            "--start",
            "{0,1,2}|{0,3}",
            "--end",
            "{0,1,3}|{0,2}",
            "--mode",
            "bfs",
        )
        assert code == 3 and "unreachable" in err

    def test_constructive_mode_needs_three_colors(self, capsys):
        code, _, err = run(
            capsys,
            "plan",
            "--graph",
            "T4",
            "--colors",
            "3,2",
            "--start",
            "{0,1,2}|{0,3}",
            "--end",
            "{0,1,3}|{0,2}",
        )
        assert code == 4 and "plan_bfs" in err

    def test_tampered_plan_fails_with_index(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.txt"
        run(
            capsys,
            "plan",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--start",
            self.START,
            "--end",
            self.END,
            "--out",
            str(plan_file),
        )
        lines = plan_file.read_text().splitlines()
        assert len(lines) >= 3
        fields = lines[2].split()
        fields[0] = "1" if fields[0] != "1" else "2"
        lines[2] = " ".join(fields)
        plan_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys,
            "verify",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--plan-file",
            str(plan_file),
        )
        report = json.loads(out)
        assert code == 1
        assert report["ok"] is False and report["failed_at"] == "2"

    def test_invalid_start_cell_fails_at_zero(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("{0,1}|{0,1}|{0}\n0 0 1\n")
        code, out, _ = run(
            capsys,
            "verify",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--plan-file",
            str(plan_file),
        )
        report = json.loads(out)
        assert code == 1 and report["failed_at"] == "0"

    @pytest.mark.parametrize("line", ["2 1 -1", "2 1 3", "3 1 0", "0 0 2"])
    def test_move_outside_the_complex_fails_at_its_step(self, capsys, tmp_path, line):
        """A vertex outside 0..n-1, a color outside 0..r-1, or a non-edge."""
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(f"{{0,1}}|{{0,2}}|{{0}}\n2 0 1\n{line}\n")
        code, out, _ = run(
            capsys,
            "verify",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--plan-file",
            str(plan_file),
        )
        report = json.loads(out)
        assert code == 1 and report["ok"] is False and report["failed_at"] == "2"


class TestInternalErrors:
    def test_internal_planner_failure_exits_five(self, capsys, monkeypatch):
        import stirling_complexes.planner as planner

        monkeypatch.setattr(planner, "verify_plan", lambda p: PlanVerification(False, 1))
        code, out, err = run(
            capsys,
            "plan",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--start",
            TestPlanAndVerify.START,
            "--end",
            TestPlanAndVerify.END,
        )
        assert code == EXIT_INTERNAL == 5
        assert out == "" and err.startswith("error: internal: ")


class TestUsageErrors:
    def test_both_graph_sources(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        code, _, err = run(
            capsys,
            "count",
            "--graph",
            "P3",
            "--graph-file",
            str(path),
            "--colors",
            "1,1",
        )
        assert code == 2 and "exactly one" in err

    def test_no_graph_source(self, capsys):
        code, _, _ = run(capsys, "count", "--colors", "1,1")
        assert code == 2

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "count", "--graph", "Q7", "--colors", "1,1")
        assert code == 2 and err == "error: --graph must look like K5, P3, T4 or C4, got 'Q7'\n"

    def test_bad_colors(self, capsys):
        code, _, _ = run(capsys, "count", "--graph", "P3", "--colors", "2,x")
        assert code == 2

    def test_missing_graph_file(self, capsys):
        code, _, _ = run(capsys, "count", "--graph-file", "/nope/missing", "--colors", "1,1")
        assert code == 2

    def test_missing_plan_file(self, capsys):
        code, _, err = run(
            capsys, "verify", "--graph", "P3", "--colors", "2,2,1", "--plan-file", "/nope/p"
        )
        assert code == 2 and "does not exist" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["count", "--graph-file", "DIR", "--colors", "1,1"], "cannot read graph file"),
            (["count", "--graph-file", "LATIN1", "--colors", "1,1"], "not UTF-8"),
            (["verify", "--graph", "P3", "--colors", "2,2,1", "--plan-file", "DIR"], "cannot read plan file"),
            (
                ["plan", "--graph", "P3", "--colors", "2,2,1", "--start", "{0,1}|{0,2}|{0}",
                 "--end", "{1,2}|{0,2}|{2}", "--out", "DIR/missing/plan.txt"],
                "cannot write",
            ),
            (
                ["components", "--graph", "P3", "--colors", "2,2,1",
                 "--export-skeleton", "DIR/missing/sk"],
                "cannot write",
            ),
        ],
        ids=["graph-file-dir", "graph-file-not-utf8", "plan-file-dir", "out-missing-dir", "export-missing-dir"],
    )
    def test_file_errors_exit_two(self, argv, message, capsys, tmp_path):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("2 1\n0 1 # caf\u00e9\n".encode("latin-1"))
        argv = [a.replace("DIR", str(tmp_path)).replace("LATIN1", str(latin1)) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_bad_edge_list_reports_line(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n0 0\n")
        code, _, err = run(capsys, "count", "--graph-file", str(path), "--colors", "1,1,1")
        assert code == 2 and "line 2" in err

    def test_bad_cell_text(self, capsys):
        code, _, err = run(
            capsys,
            "plan",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--start",
            "not-a-cell",
            "--end",
            "{0,1}|{0,2}|{0}",
        )
        assert code == 2 and "cell" in err

    def test_invalid_zero_cell_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "plan",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--start",
            "{0,1}|{0,1}|{0}",
            "--end",
            "{0,1}|{0,2}|{0}",
        )
        assert code == 2 and "valid 0-cell" in err

    def test_degenerate_named_graph(self, capsys):
        code, _, err = run(capsys, "count", "--graph", "C2", "--colors", "1,1")
        assert code == 2 and "cycle" in err

    def test_malformed_plan_file_reports_line(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("{0,1}|{0,2}|{0}\n0 0\n")
        code, _, err = run(
            capsys,
            "verify",
            "--graph",
            "P3",
            "--colors",
            "2,2,1",
            "--plan-file",
            str(plan_file),
        )
        assert code == 2 and "line 2" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
