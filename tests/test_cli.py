import json
import os

import pytest

from miniprob import cli
from miniprob.backends import TextBackend
from miniprob.exceptions import SamplingError


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


def test_demo_reports_progress_unless_quiet(tmp_path, capsys):
    # 20 draws after 10 warm-up draws: one report, at the end
    assert cli.main(["demo", "glm_logistic", "--draws", "20", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == "\rchain 0: 30 of 30 complete\n"


def test_numeric_failure_exits_4(tmp_path, capsys, monkeypatch):
    def fails(draws, seed, backend, progress):
        raise SamplingError("chain 0, draw 3: Nuts started at logp=nan")

    monkeypatch.setitem(cli.DEMOS, "linear", (fails, 100))
    assert cli.main(["demo", "linear", "--quiet", "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: chain 0, draw 3: Nuts started at logp=nan\n"


@pytest.mark.parametrize("draws", ["0", "-3", "19"])
def test_draws_below_the_summary_minimum_is_a_usage_error(tmp_path, capsys, draws):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "linear", "--draws", draws, "--quiet", "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--draws" in capsys.readouterr().err
    assert not out.exists()


def test_data_outside_sp500_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "linear", "--draws", "20", "--quiet", "--data",
                  str(tmp_path / "absent.csv"), "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--data" in capsys.readouterr().err
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


def test_summary_of_truncated_trace_is_a_data_error(tmp_path, capsys):
    write_trace(tmp_path, 200)
    path = tmp_path / "chain-0.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:151]) + "\n")  # the header and 150 of 200 rows
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "200 draws" in err and "Traceback" not in err


def test_summary_of_short_trace_is_a_data_error(tmp_path):
    write_trace(tmp_path, 10)
    assert cli.main(["summary", str(tmp_path)]) == cli.EXIT_DATA


@pytest.mark.parametrize("command", ["summary", "plotdata"])
def test_empty_trace_is_a_data_error(tmp_path, capsys, command):
    # a run that fails at draw 0 leaves a valid trace with no rows
    backend = TextBackend(str(tmp_path / "trace"))
    backend.start([("x", (), "float"), ("k", (2,), "int")], 1)
    backend.finish()
    argv = [command, str(tmp_path / "trace")]
    if command == "plotdata":
        argv += ["--out", str(tmp_path / "plots")]
    assert cli.main(argv) == cli.EXIT_DATA
    # the error names the column, and plotdata leaves no output directory behind
    message = {"summary": "hpd needs at least 2 samples",
               "plotdata": "kde needs at least 1 sample"}[command]
    assert capsys.readouterr() == ("", f"error: x: {message}\n")
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_plotdata_of_non_finite_sample_is_a_data_error(tmp_path, capsys, cell):
    write_trace(tmp_path / "trace", 200)
    path = tmp_path / "trace" / "chain-0.csv"
    lines = path.read_text().splitlines()
    lines[5] = cell
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "plots"
    assert cli.main(["plotdata", str(tmp_path / "trace"), "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr() == (
        "", "error: x: kde needs finite samples, got 1 NaN or infinite\n")
    assert not out.exists()


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


def write_raw_trace(directory, layout, rows):
    """A trace written by hand: ``layout`` lists meta.json's (name, shape,
    dtype) entries, ``rows`` the chain file's lines after its header."""
    os.makedirs(directory)
    meta = {"version": 1, "chains": 1, "draws": len(rows),
            "vars": [{"name": n, "shape": s, "dtype": d} for n, s, d in layout]}
    (directory / "meta.json").write_text(json.dumps(meta))
    header = ",".join(n if not s else ",".join(f"{n}__{i}" for i in range(s[0]))
                      for n, s, _ in layout)
    (directory / "chain-0.csv").write_text("\n".join([header] + rows) + "\n")


@pytest.mark.parametrize("command", ["summary", "plotdata"])
@pytest.mark.parametrize("layout, row, name", [
    ([("../../escaped", [], "float")], "{0}", "'../../escaped'"),
    ([("a", [2], "float"), ("a__0", [], "float")], "{0},{1},{2}", "'a__0'"),
], ids=["path_in_name", "flattened_names_collide"])
def test_trace_name_that_cannot_be_a_column_is_a_data_error(tmp_path, capsys, command,
                                                            layout, row, name):
    # "../../escaped" wrote its plot files two levels above --out; "a__0"
    # overwrote the first column of "a" with its own draws
    trace = tmp_path / "trace"
    write_raw_trace(trace, layout, [row.format(i, -i, 2.0 * i) for i in range(200)])
    argv = [command, str(trace)] + (["--out", str(trace / "plots")]
                                    if command == "plotdata" else [])
    assert cli.main(argv) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and name in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["trace"]
    assert sorted(os.listdir(trace)) == ["chain-0.csv", "meta.json"]


@pytest.mark.parametrize("command", ["summary", "plotdata"])
@pytest.mark.parametrize("damage", ["meta_byte", "row_byte", "chain_is_a_directory"])
def test_trace_file_that_cannot_be_read_is_a_data_error(tmp_path, capsys, command, damage):
    write_trace(tmp_path / "trace", 200)
    path = tmp_path / "trace" / ("meta.json" if damage == "meta_byte" else "chain-0.csv")
    if damage == "chain_is_a_directory":
        path.unlink()
        path.mkdir()
    else:
        lines = path.read_bytes().split(b"\n")
        lines[-3] += b"\xff"
        path.write_bytes(b"\n".join(lines))
    argv = [command, str(tmp_path / "trace")] + (["--out", str(tmp_path / "plots")]
                                                 if command == "plotdata" else [])
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(path)) in err and "Traceback" not in err
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("rows", [["0", "9223372036854775807"],
                                  ["-9223372036854775808", "9223372036854775807"]],
                         ids=["overflow", "full_int64_span"])
def test_plotdata_bins_an_int_column_of_any_span(tmp_path, capsys, rows):
    # one bin per integer of the span overflowed, or asked for 2**64 bins
    write_raw_trace(tmp_path / "trace", [("k", [], "int")], rows)
    assert cli.main(["plotdata", str(tmp_path / "trace"), "--out", str(tmp_path / "plots")]) == 0
    hist = (tmp_path / "plots" / "k_hist.csv").read_text()
    assert hist == "x,count\n" + "".join(f"{k},1\n" for k in rows)


@pytest.mark.parametrize("blocked", ["out", "out/trace", "out/summary.txt"])
def test_demo_output_that_cannot_be_written_is_a_data_error(tmp_path, capsys, blocked):
    # a file where the output or trace directory goes, a directory where summary.txt goes
    path = tmp_path / blocked
    path.parent.mkdir(exist_ok=True)
    if blocked.endswith(".txt"):
        path.mkdir()
    else:
        path.write_text("not a directory")
    assert cli.main(["demo", "linear", "--draws", "20", "--quiet",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_plotdata_out_naming_a_file_is_a_data_error(tmp_path, capsys):
    write_trace(tmp_path / "trace", 200)
    out = tmp_path / "plots"
    out.write_text("not a directory")
    assert cli.main(["plotdata", str(tmp_path / "trace"), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def test_sp500_malformed_returns_file_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "returns.csv"
    data.write_text("0.01\n0.02\nabc\n")
    out = tmp_path / "out"
    assert cli.main(["demo", "sp500", "--draws", "20", "--quiet", "--data", str(data),
                     "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3" in err and "Traceback" not in err
