import json
import math

import numpy as np
import pytest

from specprotect.cli import main
from specprotect.io import read_matrix_file, write_matrix_file
from specprotect import SymmetricMatrix, realize


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def example_files(tmp_path):
    a = write_doc(tmp_path / "A.json", {"n": 2, "matrix": [1.0, 0.0, 0.0, -1.0]})
    b = write_doc(tmp_path / "B.json", {"n": 2, "matrix": [0.5, 0.5, 0.5, 0.5]})
    return a, b


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(71)
    m = rng.standard_normal((5, 5))
    original = SymmetricMatrix(m + m.T)
    path = tmp_path / "m.json"
    write_matrix_file(str(path), original, label="test")
    loaded, label = read_matrix_file(str(path))
    assert label == "test"
    assert np.array_equal(loaded.mat, original.mat)


def test_analyze_happy_path(example_files, tmp_path, capsys):
    a, b = example_files
    out = str(tmp_path / "report.json")
    assert main(["analyze", a, b, "--out", out]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == ["0.0"]
    doc = json.loads(open(out).read())
    assert len(doc["protected_points"]) == 1
    assert doc["protected_points"][0]["value"] == pytest.approx(0.0, abs=1e-12)
    assert doc["spectrum_a"] == [-1.0, 1.0]


def test_analyze_deterministic(example_files, tmp_path):
    a, b = example_files
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["analyze", a, b, "--out", out1]) == 0
    assert main(["analyze", a, b, "--out", out2]) == 0
    bytes1 = open(out1, "rb").read()
    bytes2 = open(out2, "rb").read()
    assert bytes1 == bytes2


def test_analyze_parse_failures_exit_2(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    good = write_doc(tmp_path / "g.json", {"n": 1, "matrix": [1.0]})
    assert main(["analyze", str(bad_json), good]) == 2
    missing_n = write_doc(tmp_path / "n.json", {"matrix": [1.0]})
    assert main(["analyze", missing_n, good]) == 2
    wrong_len = write_doc(tmp_path / "l.json", {"n": 2, "matrix": [1.0, 2.0]})
    assert main(["analyze", wrong_len, good]) == 2
    bad_entry = write_doc(tmp_path / "e.json", {"n": 1, "matrix": ["x"]})
    assert main(["analyze", bad_entry, good]) == 2


def test_analyze_non_symmetric_exit_3(tmp_path, example_files):
    _, b = example_files
    asym = write_doc(tmp_path / "asym.json", {"n": 2, "matrix": [0.0, 5.0, 1.0, 0.0]})
    assert main(["analyze", asym, b]) == 3


def test_analyze_indefinite_b_exit_3(tmp_path, example_files, capsys):
    a, _ = example_files
    indef = write_doc(tmp_path / "ind.json", {"n": 2, "matrix": [0.0, 1.0, 1.0, 0.0]})
    assert main(["analyze", a, indef, "--out", str(tmp_path / "r.json")]) == 3
    assert "not positive semi-definite" in capsys.readouterr().err


def test_analyze_zero_b_exit_4(tmp_path, example_files):
    a, _ = example_files
    zero = write_doc(tmp_path / "z.json", {"n": 2, "matrix": [0.0, 0.0, 0.0, 0.0]})
    assert main(["analyze", a, zero, "--out", str(tmp_path / "r.json")]) == 4


def test_realize_writes_construction(tmp_path, capsys):
    out_a = str(tmp_path / "A.json")
    out_b = str(tmp_path / "B.json")
    assert main(["realize", "--points", "0", "--out-a", out_a, "--out-b", out_b]) == 0
    a, _ = read_matrix_file(out_a)
    b, _ = read_matrix_file(out_b)
    assert np.allclose(a.mat, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(b.mat, np.diag([0.0, 1.0]))


def test_realize_verify_certifies(tmp_path, capsys):
    code = main(
        [
            "realize",
            "--points=-2,0.5,3",
            "--verify",
            "--out-a",
            str(tmp_path / "A.json"),
            "--out-b",
            str(tmp_path / "B.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "3/3 points certified" in out
    assert "point -2.0: certified" in out


def test_realize_duplicate_points_exit_2(tmp_path):
    assert (
        main(
            [
                "realize",
                "--points",
                "1,1",
                "--out-a",
                str(tmp_path / "A.json"),
                "--out-b",
                str(tmp_path / "B.json"),
            ]
        )
        == 2
    )


def test_realize_analyze_round_trip(tmp_path, capsys):
    out_a = str(tmp_path / "A.json")
    out_b = str(tmp_path / "B.json")
    points = [-2.0, 0.5, 3.0]
    assert main(["realize", "--points=-2,0.5,3", "--out-a", out_a, "--out-b", out_b]) == 0
    report = str(tmp_path / "rep.json")
    assert main(["analyze", out_a, out_b, "--out", report]) == 0
    doc = json.loads(open(report).read())
    found = [p["value"] for p in doc["protected_points"]]
    assert np.allclose(found, points, atol=1e-9)


def test_flow_csv(example_files, tmp_path, capsys):
    a, b = example_files
    out = str(tmp_path / "flow.csv")
    code = main(
        ["flow", a, b, "--t-min", "-5", "--t-max", "5", "--t-steps", "3", "--out", out]
    )
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,lambda_1,lambda_2"
    assert len(lines) == 4
    for line in lines[1:]:
        t, lo, hi = (float(x) for x in line.split(","))
        assert lo == pytest.approx(t / 2 - math.sqrt(t**2 / 4 + 1), abs=1e-10)
        assert hi == pytest.approx(t / 2 + math.sqrt(t**2 / 4 + 1), abs=1e-10)


def test_flow_deterministic(example_files, tmp_path):
    a, b = example_files
    o1, o2 = str(tmp_path / "f1.csv"), str(tmp_path / "f2.csv")
    args = ["flow", a, b, "--t-min", "-2", "--t-max", "2", "--t-steps", "9"]
    assert main(args + ["--out", o1]) == 0
    assert main(args + ["--out", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_flow_bad_range_exit_2(example_files, tmp_path):
    a, b = example_files
    out = str(tmp_path / "f.csv")
    assert main(["flow", a, b, "--t-min", "5", "--t-max", "-5", "--t-steps", "3", "--out", out]) == 2
    assert main(["flow", a, b, "--t-min", "-5", "--t-max", "5", "--t-steps", "1", "--out", out]) == 2


def test_verify_protected(example_files, capsys):
    a, b = example_files
    assert main(["verify", a, b, "--lambda", "0"]) == 0
    out = capsys.readouterr().out
    assert "protected" in out


def test_verify_unprotected_consistent(example_files, capsys):
    a, b = example_files
    assert main(["verify", a, b, "--lambda", "0.3"]) == 0
    assert "not protected" in capsys.readouterr().out


def test_verify_lambda_on_spectrum_exit_3(example_files):
    a, b = example_files
    assert main(["verify", a, b, "--lambda", "1"]) == 3


def test_verify_inconsistent_tolerance_exit_5(example_files, capsys):
    # an absurd tolerance certifies an unprotected point; the cross-checks
    # disagree and the tool reports the inconsistency
    a, b = example_files
    assert main(["verify", a, b, "--lambda", "0.5", "--tol", "10"]) == 5


@pytest.mark.parametrize("b_scale", [1e3, 1e6])
@pytest.mark.parametrize("lam", [-2.0, 0.5, 3.0, 1.0])
def test_verify_flow_oracle_independent_of_b_scale(tmp_path, capsys, b_scale, lam):
    # Protected points of realize([-2, 0.5, 3]) stay protected when B is
    # scaled; the flow oracle must not report a hit at any scale of B.
    pair = realize([-2.0, 0.5, 3.0])
    a, b = str(tmp_path / "A.json"), str(tmp_path / "B.json")
    write_matrix_file(a, pair.a, label="A")
    write_matrix_file(b, SymmetricMatrix(b_scale * pair.b.mat), label="B")
    assert main(["verify", a, b, "--lambda", repr(lam)]) == 0
    label = "not protected" if lam == 1.0 else "protected"
    assert f"lambda = {lam!r}: {label} " in capsys.readouterr().out


def test_verify_t_grid_grammar(example_files):
    a, b = example_files
    assert main(["verify", a, b, "--lambda", "0", "--t-grid", "lin:-10:10:41"]) == 0
    assert main(["verify", a, b, "--lambda", "0", "--t-grid", "log:-1:3:5,symmetric"]) == 0
    assert main(["verify", a, b, "--lambda", "0", "--t-grid", "bogus:1:2:3"]) == 2
    assert main(["verify", a, b, "--lambda", "0", "--t-grid", "lin:5:1:10"]) == 2


def test_usage_error_exit_2():
    assert main(["analyze"]) == 2
    assert main(["no-such-command"]) == 2
