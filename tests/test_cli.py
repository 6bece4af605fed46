import csv
import json

import pytest

from granule.cli import (
    EXIT_INGEST,
    EXIT_OK,
    EXIT_VERIFY,
    IngestionError,
    load_csv,
    main,
)
from granule.existential import format_system_file, parse_system_file

from conftest import two_blob_labeled
from fixtures_axioms import pt2_violation


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def blob_csv(tmp_path):
    x, labels = two_blob_labeled(n_per=40, seed=5)
    rows = [
        [f"{row[0]:.6f}", f"{row[1]:.6f}", "pos" if lab else "neg"]
        for row, lab in zip(x, labels)
    ]
    return write_csv(tmp_path / "blobs.csv", rows, header=["x", "y", "class"])


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1, 2], [3, 4], [5, 6]])
        ds = load_csv(path)
        assert ds.points.n == 3 and ds.points.d == 2
        assert all(l is None for l in ds.labels)

    def test_label_column_with_gaps(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            [[0.0, 1.0, "1"], [1.0, 2.0, ""], [2.0, 3.0, "0"], [3.0, 4.0, ""]],
            header=["a", "b", "class"],
        )
        ds = load_csv(path, "class")
        assert ds.points.d == 2
        assert ds.labels == (1, None, 0, None)

    def test_label_column_by_index(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [["7", 0.5], ["9", 1.5]])
        ds = load_csv(path, "0")
        assert ds.points.d == 1
        assert ds.labels == (7, 9)

    def test_string_labels_encoded_sorted(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            [[0.0, "z"], [1.0, "a"], [2.0, "z"]],
            header=["v", "class"],
        )
        ds = load_csv(path, "class")
        assert ds.labels == (1, 0, 1)

    def test_bad_feature_names_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.0, 1.0], ["abc", 2.0]], header=["a", "b"])
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.0, 1.0], [2.0]])
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestionError, match="empty"):
            load_csv(str(path))

    def test_unknown_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.0, 1.0]], header=["a", "b"])
        with pytest.raises(IngestionError, match="label column"):
            load_csv(path, "missing")


def run_to_file(args, out):
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestCommands:
    def test_cluster_report_fields(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            ["cluster", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "r.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        for key in (
            "assignments",
            "centers",
            "radii",
            "iterations",
            "distance_computations",
            "prunings_fired",
            "converged",
        ):
            assert key in report
        assert report["converged"] is True
        assert len(report["assignments"]) == 80

    def test_cluster_matches_lloyd(self, blob_csv, tmp_path):
        _, fast = run_to_file(
            ["cluster", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "fast.json",
        )
        _, naive = run_to_file(
            ["lloyd", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "naive.json",
        )
        assert json.loads(fast)["assignments"] == json.loads(naive)["assignments"]

    def test_bench(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            [
                "bench", "--input", blob_csv, "--labels", "class",
                "--k", "2", "--seed", "3", "--repeats", "2",
            ],
            tmp_path / "bench.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["all_partitions_equal"] is True
        assert report["acceleration_holds"] is True
        assert len(report["repeats"]) == 2
        assert report["repeats"][0] == report["repeats"][1]
        assert "timing" not in report

    def test_gb(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            [
                "gb", "--input", blob_csv, "--labels", "class",
                "--purity", "0.95", "--seed", "7",
            ],
            tmp_path / "gb.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["all_splits_major_minor"] is True
        members = sorted(i for ball in report["balls"] for i in ball["members"])
        assert members == list(range(80))

    def test_verify_metric_pass_and_fail(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            ["verify-metric", "--input", blob_csv, "--labels", "class", "--metric", "euclidean"],
            tmp_path / "m1.json",
        )
        assert code == EXIT_OK and json.loads(raw)["pass"] is True
        code, raw = run_to_file(
            [
                "verify-metric", "--input", blob_csv, "--labels", "class",
                "--metric", "sqeuclidean", "--declare", "metric",
            ],
            tmp_path / "m2.json",
        )
        assert code == EXIT_VERIFY
        report = json.loads(raw)
        assert report["pass"] is False and report["flags"]["triangle"] is False
        assert "triangle" in report["counterexamples"]

    def test_verify_algebra(self, tmp_path):
        code, raw = run_to_file(
            ["verify-algebra", "--center", "0", "--radius", "3"],
            tmp_path / "alg.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["pass"] is True
        assert report["dom_contained"] is True
        assert report["properness_witness"] is not None

    def test_verify_algebra_with_v_csv(self, tmp_path):
        path = write_csv(tmp_path / "v.csv", [[float(t)] for t in range(-2, 3)])
        code, raw = run_to_file(
            ["verify-algebra", "--center", "0", "--radius", "2", "--v-csv", path],
            tmp_path / "alg2.json",
        )
        assert code == EXIT_OK and json.loads(raw)["pass"] is True

    def test_verify_axioms_partition(self, tmp_path):
        code, raw = run_to_file(
            ["verify-axioms", "--universe", "1,2,3", "--partition", "1,2|3", "--suite", "ggs"],
            tmp_path / "ax.json",
        )
        assert code == EXIT_OK and json.loads(raw)["pass"] is True

    def test_verify_axioms_system_file(self, tmp_path):
        sys_, _ = pt2_violation()
        path = tmp_path / "system.txt"
        path.write_text(format_system_file(sys_))
        code, raw = run_to_file(
            ["verify-axioms", "--system", str(path), "--suite", "ggs"],
            tmp_path / "ax2.json",
        )
        assert code == EXIT_VERIFY
        report = json.loads(raw)
        assert report["axioms"]["PT2"]["passed"] is False
        # the same file under pre-ggs must pass (the axiom is excluded)
        code, raw = run_to_file(
            ["verify-axioms", "--system", str(path), "--suite", "pre-ggs"],
            tmp_path / "ax3.json",
        )
        assert code == EXIT_OK

    def test_system_file_round_trip_through_cli(self, tmp_path):
        sys_, _ = pt2_violation()
        text = format_system_file(sys_)
        back = parse_system_file(text)
        assert back.n == sys_.n

    def test_crrf_demo_partition(self, tmp_path):
        code, raw = run_to_file(
            ["crrf-demo", "--universe", "1,2,3", "--partition", "1,2|3"],
            tmp_path / "crrf.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["mode"] == "partition"
        assert all(report["space_axioms"].values())
        assert report["xi"]["xi1"]["type1_ok"] is True

    def test_crrf_demo_clustering(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            ["crrf-demo", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "crrf2.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["mode"] == "clustering-trace"
        assert report["all_spaces_pass_axioms"] is True
        assert report["final_entry_fixed_point"] is True

    def test_missing_input_is_ingestion_error(self, tmp_path):
        code = main(["cluster", "--input", str(tmp_path / "nope.csv"), "--k", "2", "--seed", "0"])
        assert code == EXIT_INGEST


class TestDeterminism:
    def test_reruns_are_byte_identical(self, blob_csv, tmp_path):
        args = ["cluster", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"]
        _, first = run_to_file(args, tmp_path / "a.json")
        _, second = run_to_file(args, tmp_path / "b.json")
        assert first == second

    def test_bench_reruns_are_byte_identical(self, blob_csv, tmp_path):
        args = ["bench", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"]
        _, first = run_to_file(args, tmp_path / "a.json")
        _, second = run_to_file(args, tmp_path / "b.json")
        assert first == second
