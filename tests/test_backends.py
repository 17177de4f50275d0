import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from miniprob.backends import MemoryBackend, TextBackend, Trace, flat_names, load
from miniprob.exceptions import (
    DataError,
    IoFailure,
    ShapeMismatch,
    UnknownVariable,
)

LAYOUT = [("alpha", (), "float"), ("beta", (2,), "float"), ("k", (), "int")]


def edit_line(path, i, edit):
    """Rewrite line ``i`` of the text file at ``path`` as ``edit(line)``."""
    lines = Path(path).read_text().splitlines()
    lines[i] = edit(lines[i])
    Path(path).write_text("\n".join(lines) + "\n")


def fill(backend, chains=1, draws=5, seed=0):
    rng = np.random.default_rng(seed)
    backend.start(LAYOUT, chains)
    rows = []
    for c in range(chains):
        for _ in range(draws):
            point = {"alpha": rng.standard_normal(),
                     "beta": rng.standard_normal(2),
                     "k": rng.integers(-3, 10)}
            rows.append(point)
            backend.record(c, point)
    return backend.finish(), rows


def backend(kind, tmp_path):
    return MemoryBackend() if kind == "memory" else TextBackend(str(tmp_path / "trace"))


@pytest.mark.parametrize("kind", ["memory", "text"])
@pytest.mark.parametrize("value", [2.7, np.inf, np.nan])
def test_int_column_never_truncates(kind, value, tmp_path):
    b = backend(kind, tmp_path)
    b.start([("k", (2,), "int")], 1)
    with pytest.raises(ShapeMismatch, match="'k' is declared integral"):
        b.record(0, {"k": np.array([1.0, value])})
    v = np.array([2.0, -3.0])  # integral floats are kept, as a copy
    b.record(0, {"k": v})
    v[0] = 9.0
    trace = b.finish()
    assert trace["k"].tolist() == [[2, -3]] and trace["k"].dtype == np.int64
    if kind == "text":
        assert (tmp_path / "trace" / "chain-0.csv").read_text() == "k__0,k__1\n2,-3\n"


@pytest.mark.parametrize("kind", ["memory", "text"])
@pytest.mark.parametrize("chain", [-1, 2])
def test_chain_outside_the_trace_rejected(kind, chain, tmp_path):
    b = backend(kind, tmp_path)
    b.start([("a", (), "float")], 2)
    with pytest.raises(ShapeMismatch, match=f"^chain {chain} is out of range for a trace "
                                             f"of 2 chains$"):
        b.record(chain, {"a": 1.0})
    trace = b.finish()
    assert [trace.chain_length(c) for c in range(2)] == [0, 0]
    if kind == "text":
        assert (tmp_path / "trace" / "chain-1.csv").read_text() == "a\n"


class TestFlatNames:
    def test_scalar_and_vector(self):
        assert flat_names("alpha", ()) == ["alpha"]
        assert flat_names("beta", (2,)) == ["beta__0", "beta__1"]

    def test_row_major_matrix(self):
        assert flat_names("m", (2, 2)) == ["m__0", "m__1", "m__2", "m__3"]


class TestMemoryBackend:
    def test_round_trip_bit_exact(self):
        trace, rows = fill(MemoryBackend())
        assert float(trace["alpha"][-1]) == float(rows[-1]["alpha"])
        np.testing.assert_array_equal(trace["beta"][0], rows[0]["beta"])
        assert trace["k"].dtype == np.int64

    def test_missing_name_rejected(self):
        b = MemoryBackend()
        b.start(LAYOUT, 1)
        with pytest.raises(UnknownVariable, match="recorded point is missing traced variable 'k'"):
            b.record(0, {"alpha": 1.0, "beta": np.zeros(2)})

    def test_wrong_shape_rejected(self):
        b = MemoryBackend()
        b.start([("a", (2,), "float")], 1)
        with pytest.raises(ShapeMismatch, match=r"traced variable 'a': shape \(3,\) != \(2,\)"):
            b.record(0, {"a": np.zeros(3)})

    def test_negative_indexing_returns_point(self):
        trace, rows = fill(MemoryBackend(), draws=7)
        pt = trace[-1]
        assert set(pt) == {"alpha", "beta", "k"}
        assert float(pt["alpha"]) == float(rows[-1]["alpha"])
        pt3 = trace[-3]
        assert float(pt3["alpha"]) == float(rows[-3]["alpha"])

    def test_concatenates_chains_in_order(self):
        trace, rows = fill(MemoryBackend(), chains=2, draws=3)
        assert trace["alpha"].shape == (6,)
        assert len(trace) == 6
        assert float(trace["alpha"][0]) == float(rows[0]["alpha"])
        assert float(trace["alpha"][3]) == float(rows[3]["alpha"])

    def test_unknown_variable(self):
        trace, _ = fill(MemoryBackend())
        with pytest.raises(UnknownVariable):
            trace["nope"]


class TestTextBackend:
    def test_round_trip_zero_ulp(self, tmp_path):
        # adversarial doubles: the 17-significant-digit cases
        vals = np.array([0.1, 1 / 3, np.pi, 2.0 ** -1074, 1e308, -7.3e-222])
        b = TextBackend(str(tmp_path / "t"))
        b.start([("v", (6,), "float")], 1)
        b.record(0, {"v": vals})
        trace = b.finish()
        assert np.array_equal(trace["v"][0], vals)  # exact, not approx

    def test_matches_memory_backend(self, tmp_path):
        t_mem, _ = fill(MemoryBackend(), chains=2, draws=10, seed=3)
        t_txt, _ = fill(TextBackend(str(tmp_path / "t")), chains=2, draws=10, seed=3)
        for name in ("alpha", "beta", "k"):
            np.testing.assert_array_equal(t_mem[name], t_txt[name])

    def test_load_reproduces(self, tmp_path):
        d = str(tmp_path / "t")
        t1, _ = fill(TextBackend(d), chains=2, draws=4, seed=9)
        t2 = load(d)
        assert t2.var_shapes == t1.var_shapes
        for name in t1.names:
            np.testing.assert_array_equal(t1[name], t2[name])

    def test_meta_contents(self, tmp_path):
        import json
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=2, draws=4)
        with open(os.path.join(d, "meta.json")) as f:
            meta = json.load(f)
        assert meta["version"] == 1
        assert meta["chains"] == 2
        assert meta["draws"] == 4
        assert meta["vars"][1] == {"name": "beta", "shape": [2], "dtype": "float"}

    def test_failed_start_names_the_chain_file_and_closes_the_others(self, tmp_path):
        # chain-0.csv is opened before chain-1.csv fails; an unclosed file
        # would surface as a ResourceWarning, an error under this suite
        d = tmp_path / "t"
        (d / "chain-1.csv").mkdir(parents=True)
        b = TextBackend(str(d))
        with pytest.raises(IoFailure, match=r"cannot create trace file .*chain-1\.csv"):
            b.start([("x", (), "float")], 2)
        assert b._files[0].closed

    def test_empty_directory_is_corrupt(self, tmp_path):
        with pytest.raises(DataError, match="no metadata file"):
            load(str(tmp_path))

    def test_missing_chain_file(self, tmp_path):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=2, draws=4)
        os.remove(os.path.join(d, "chain-1.csv"))
        with pytest.raises(DataError, match=r"unreadable chain file .*chain-1\.csv"):
            load(d)

    def test_declared_size_is_checked_before_names_are_built(self, tmp_path):
        # building the 200000 declared column names would take some 25 MB
        d = tmp_path / "t"
        d.mkdir()
        meta = {"version": 1, "vars": [{"name": "x", "shape": [200000], "dtype": "float"}],
                "chains": 1, "draws": 0}
        (d / "meta.json").write_text(json.dumps(meta))
        (d / "chain-0.csv").write_text("x\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"chain-0\.csv.* header does not match metadata"):
                load(str(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_garbled_meta(self, tmp_path):
        d = tmp_path / "t"
        d.mkdir()
        (d / "meta.json").write_text("{not json")
        with pytest.raises(DataError, match="unreadable metadata file"):
            load(str(d))

    @pytest.mark.parametrize("name", ["beta", 3, ["alpha"]], ids=["twice", "int", "list"])
    def test_bad_variable_name_in_meta(self, tmp_path, name):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=1, draws=2)
        with open(os.path.join(d, "meta.json")) as f:
            meta = json.load(f)
        meta["vars"][0]["name"] = name  # alpha's column, renamed
        with open(os.path.join(d, "meta.json"), "w") as f:
            json.dump(meta, f)
        edit_line(os.path.join(d, "chain-0.csv"), 0,
                  lambda h: ",".join(flat_names(str(name), ()) + h.split(",")[1:]))
        with pytest.raises(DataError, match=re.escape(repr(name))):
            load(d)

    def test_header_mismatch_detected(self, tmp_path):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=1, draws=2)
        edit_line(os.path.join(d, "chain-0.csv"), 0, lambda _: "wrong,header,entirely,x")
        with pytest.raises(DataError, match="header does not match metadata"):
            load(d)

    @pytest.mark.parametrize("row", ["0.1,0.2,0.3", "0.1,0.2,0.3,4,5", "0.1,abc,0.3,4",
                                     "0.1,0.2,0.3,4.5", "0.1,0.2,0.3,99999999999999999999"],
                             ids=["short", "long", "non_numeric", "fractional_int",
                                  "overflowing_int"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=1, draws=3)
        edit_line(os.path.join(d, "chain-0.csv"), 2, lambda _: row)
        with pytest.raises(DataError, match=r"chain-0\.csv.* line 3"):
            load(d)

    @pytest.mark.parametrize("field, value", [
        ("chains", "two"), ("chains", 0), ("chains", -1), ("chains", 1.0), ("chains", True),
        ("shape", ["a"]), ("shape", [-1]), ("shape", 2), ("shape", "2"),
        ("dtype", "complex"),
        ("version", True), ("version", 2), ("version", "1"),
        ("draws", -1), ("draws", 2.0), ("draws", True), ("draws", "2"),
        ("draws", 3), ("draws", 1),
    ], ids=["chains_str", "chains_zero", "chains_negative", "chains_float", "chains_bool",
            "shape_str_entry", "shape_negative", "shape_int", "shape_str", "dtype_complex",
            "version_bool", "version_two", "version_str",
            "draws_negative", "draws_float", "draws_bool", "draws_str",
            "draws_above_rows", "draws_below_rows"])
    def test_malformed_meta_field(self, tmp_path, field, value):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=1, draws=2)
        path = os.path.join(d, "meta.json")
        with open(path) as f:
            meta = json.load(f)
        if field in ("chains", "version", "draws"):
            meta[field] = value
        else:
            meta["vars"][1][field] = value
        with open(path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(DataError, match=field):
            load(d)

    @pytest.mark.parametrize("chain, keep", [(0, 2), (0, 0), (1, 4)],
                             ids=["chain0_cut", "chain0_header_only", "chain1_extra_row"])
    def test_row_count_checked_against_meta(self, tmp_path, chain, keep):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=2, draws=3)
        path = Path(d, f"chain-{chain}.csv")
        lines = path.read_text().splitlines()
        lines = (lines + lines[-1:])[:1 + keep]  # cut at a line boundary, or repeat a row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"chain-{chain}\.csv.* {keep} rows.* 3 draws"):
            load(d)

    @pytest.mark.parametrize("at", [2, 4], ids=["middle", "end"])
    def test_blank_line_rejected(self, tmp_path, at):
        # a blank line is a row of one empty cell, not a line to skip
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=1, draws=3)
        path = Path(d, "chain-0.csv")
        lines = path.read_text().splitlines()
        lines.insert(at, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"chain-0\.csv.* line {at + 1}: 1 cells, the "
                                            rf"header has 4$"):
            load(d)

    def test_write_failures_are_io_failures(self, tmp_path, monkeypatch):
        def full(*args):
            raise OSError(28, "No space left on device")

        b = TextBackend(str(tmp_path / "t"))
        b.start([("x", (), "float")], 1)
        monkeypatch.setattr(b._files[0], "write", full)
        with pytest.raises(IoFailure, match=r"^cannot write to trace chain file: "
                                            r"\[Errno 28\] No space left on device$"):
            b.record(0, {"x": 1.0})
        monkeypatch.setattr("miniprob.backends.open", lambda *a, **k: full(), raising=False)
        with pytest.raises(IoFailure, match=r"^cannot finalize trace directory: "
                                            r"\[Errno 28\] No space left on device$"):
            b.finish()
        assert b._files[0].closed

    @pytest.mark.parametrize("edit, match", [
        (lambda meta: meta.pop("draws"), r"malformed metadata in .*: 'draws'$"),
        (lambda meta: meta["vars"].clear(), r"metadata in .* lists no variables$"),
    ], ids=["missing_key", "no_variables"])
    def test_meta_without_draws_or_variables(self, tmp_path, edit, match):
        d = str(tmp_path / "t")
        fill(TextBackend(d), chains=1, draws=2)
        path = os.path.join(d, "meta.json")
        with open(path) as f:
            meta = json.load(f)
        edit(meta)
        with open(path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(DataError, match=match):
            load(d)

    def test_row_cut_inside_a_number(self, tmp_path):
        d = str(tmp_path / "t")
        b = TextBackend(d)
        b.start([("x", (), "float")], 1)
        for x in (0.5, 0.123456):
            b.record(0, {"x": x})
        b.finish()
        path = Path(d, "chain-0.csv")
        path.write_text(path.read_text()[:-2])  # "0.123456\n" becomes "0.12345"
        with pytest.raises(DataError, match=r"chain-0\.csv.* line 3: the row is cut short"):
            load(d)


class TestTraceSemantics:
    def test_position_must_be_an_integer(self):
        trace, _ = fill(MemoryBackend(), draws=2)
        with pytest.raises(TypeError, match="^trace indices are variable names or draw "
                                            "positions, got 1.5$"):
            trace[1.5]

    def test_point_from_last_chain(self):
        b = MemoryBackend()
        b.start([("x", (), "float")], 2)
        for i in range(3):
            b.record(0, {"x": float(i)})
        for i in range(3):
            b.record(1, {"x": 10.0 + i})
        trace = b.finish()
        # negative positions index the final chain
        assert float(trace[-1]["x"]) == 12.0
        assert float(trace[-3]["x"]) == 10.0
