import json
import os

import pytest

from miniprob import cli
from miniprob.backends import TextBackend


def write_trace(directory, draws):
    backend = TextBackend(str(directory))
    backend.start([("x", (), "float")], 1)
    for i in range(draws):
        backend.record(0, {"x": float(i)})
    backend.finish()


def test_demo_writes_summary_trace_and_plots(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["demo", "linear", "--draws", "100", "--quiet", "--out", str(out)]) == 0
    assert (out / "summary.txt").is_file()
    assert (out / "trace" / "meta.json").is_file()
    assert os.listdir(out / "plots")


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_draws_below_one_is_a_usage_error(tmp_path, capsys, draws):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "linear", "--draws", draws, "--quiet", "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--draws" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_seed_variable_is_a_usage_error_for_demo_only(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setenv("MINIPROB_SEED", "abc")
    write_trace(tmp_path / "trace", 200)
    assert cli.main(["summary", str(tmp_path / "trace")]) == cli.EXIT_OK
    assert cli.main(["plotdata", str(tmp_path / "trace"), "--out",
                     str(tmp_path / "plots")]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "linear", "--quiet", "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--seed" in err and "'abc'" in err and "Traceback" not in err
    assert not out.exists()


def test_summary_of_missing_directory_is_a_data_error(tmp_path):
    assert cli.main(["summary", str(tmp_path / "absent")]) == cli.EXIT_DATA


def test_summary_of_corrupt_row_is_a_data_error(tmp_path, capsys):
    write_trace(tmp_path, 200)
    path = tmp_path / "chain-0.csv"
    lines = path.read_text().splitlines()
    lines[5] = "not-a-number"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 6" in err and "Traceback" not in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_summary_of_non_finite_sample_is_a_data_error(tmp_path, capsys, cell):
    write_trace(tmp_path, 200)
    path = tmp_path / "chain-0.csv"
    lines = path.read_text().splitlines()
    lines[5] = cell
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_summary_of_short_trace_is_a_data_error(tmp_path):
    write_trace(tmp_path, 10)
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA


@pytest.mark.parametrize("field, value", [
    ("chains", "two"), ("chains", 0), ("chains", -1), ("shape", ["a"]), ("dtype", "complex"),
], ids=["chains_str", "chains_zero", "chains_negative", "shape_str_entry", "dtype_complex"])
def test_summary_of_malformed_meta_is_a_data_error(tmp_path, capsys, field, value):
    write_trace(tmp_path, 200)
    meta = json.loads((tmp_path / "meta.json").read_text())
    if field == "chains":
        meta["chains"] = value
    else:
        meta["vars"][0][field] = value
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def test_summary_of_meta_listing_a_name_twice_is_a_data_error(tmp_path, capsys):
    backend = TextBackend(str(tmp_path))
    backend.start([("x", (), "float"), ("y", (), "float")], 1)
    for i in range(200):
        backend.record(0, {"x": float(i), "y": 10.0 + i})
    backend.finish()
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["vars"][1]["name"] = "x"
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    path = tmp_path / "chain-0.csv"
    lines = path.read_text().splitlines()
    lines[0] = "x,x"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err and "Traceback" not in err
