import numpy as np
import pytest

from miniprob.backends import MemoryBackend
from miniprob.exceptions import DataError, UnknownVariable
from miniprob.stats import (
    ess,
    histogram,
    hpd,
    kde,
    mc_error,
    quantiles,
    summary,
    traceplot_data,
    write_plot_data,
)


def trace_of(named_arrays, dtypes=None):
    dtypes = dtypes or {}
    layout = [(name, arr.shape[1:], dtypes.get(name, "float"))
              for name, arr in named_arrays.items()]
    backend = MemoryBackend()
    backend.start(layout, 1)
    n = next(iter(named_arrays.values())).shape[0]
    for i in range(n):
        backend.record(0, {name: arr[i] for name, arr in named_arrays.items()})
    return backend.finish()


class TestQuantiles:
    def test_linear_interpolation_1_to_100(self):
        x = np.arange(1.0, 101.0)
        q = quantiles(x)
        assert q[0] == pytest.approx(3.475)
        assert q[2] == pytest.approx(50.5)

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(30, 500))
            s = np.sort(x)
            n = s.size
            for p in (2.5, 25.0, 50.0, 75.0, 97.5):
                h = (n - 1) * p / 100.0
                lo = int(np.floor(h))
                oracle = s[lo] + (h - lo) * (s[min(lo + 1, n - 1)] - s[lo])
                got = quantiles(x, [p])[0]
                assert got == pytest.approx(oracle, abs=1e-12)


class TestHpd:
    def test_uniform_1_to_100(self):
        lo, hi = hpd(np.arange(1.0, 101.0), alpha=0.05)
        assert (lo, hi) == (1.0, 95.0)

    def test_all_equal(self):
        lo, hi = hpd(np.full(50, 3.25))
        assert lo == hi == 3.25

    def test_standard_normal_interval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100000)
        lo, hi = hpd(x, alpha=0.05)
        assert lo == pytest.approx(-1.96, abs=0.05)
        assert hi == pytest.approx(1.96, abs=0.05)

    def test_brute_force_windows(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = np.sort(rng.standard_normal(rng.integers(10, 80)))
            n = x.size
            m = int(np.ceil(0.95 * n))
            widths = [x[i + m - 1] - x[i] for i in range(n - m + 1)]
            i = int(np.argmin(widths))
            assert hpd(x) == (x[i], x[i + m - 1])

    def test_narrower_than_equal_tails(self):
        rng = np.random.default_rng(3)
        x = rng.gamma(2.0, size=20000)
        lo, hi = hpd(x)
        q = quantiles(x, [2.5, 97.5])
        assert hi - lo <= q[1] - q[0] + 1e-12

    def test_too_few(self):
        with pytest.raises(DataError, match="hpd needs at least 2 samples"):
            hpd(np.array([1.0]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_outside_open_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            hpd(np.arange(100.0), alpha=alpha)


class TestMcError:
    def test_constant_series(self):
        assert mc_error(np.full(200, 4.2)) == 0.0

    def test_iid_normal_scales_as_inverse_sqrt_n(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20000)
        got = mc_error(x)
        expect = 1.0 / np.sqrt(20000)
        assert 0.7 * expect < got < 1.3 * expect

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 10000)
        assert mc_error(x) == 0.0

    def test_too_few(self):
        with pytest.raises(DataError, match="mc_error needs at least 20 samples, got 10"):
            mc_error(np.arange(10.0))

    @pytest.mark.parametrize("batches", [1, 0])
    def test_fewer_than_two_batches_rejected(self, batches):
        with pytest.raises(ValueError):
            mc_error(np.arange(100.0), batches=batches)


class TestEss:
    def test_iid(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10000)
        assert 8000 <= ess(x) <= 12000

    def test_ar1(self):
        rng = np.random.default_rng(6)
        phi = 0.9
        n = 40000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        factor = ess(x) / n
        expect = (1 - phi) / (1 + phi)
        assert 0.6 * expect < factor < 1.4 * expect

    def test_constant_is_zero(self):
        assert ess(np.full(500, 1.5)) == 0.0

    def test_too_few(self):
        with pytest.raises(DataError, match="ess needs at least 100 samples, got 50"):
            ess(np.arange(50.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stat", [hpd, mc_error, ess, quantiles])
def test_non_finite_sample_rejected(stat, bad):
    x = np.random.default_rng(3).normal(size=200)
    x[17] = bad
    with pytest.raises(DataError, match="needs finite samples"):
        stat(x)


@pytest.mark.parametrize("call, setting", [
    (lambda x: mc_error(x, batches=2.5), "batches"),
    (lambda x: mc_error(x, batches="3"), "batches"),
    (lambda x: mc_error(x, batches=np.inf), "batches"),
    (lambda x: kde(x, n_points=2.5), "n_points"),
    (lambda x: kde(x, n_points=True), "n_points"),
    (lambda x: kde(x, n_points=0), "n_points"),
    (lambda x: hpd(x, alpha="0.1"), "alpha"),
    (lambda x: hpd(x, alpha=True), "alpha"),
    (lambda x: quantiles(x, probs="a"), "probs"),
    (lambda x: quantiles(x, probs=[50.0, "7"]), "probs"),
    (lambda x: quantiles(x, probs=[True]), "probs"),
], ids=["batches_fraction", "batches_str", "batches_inf", "n_points_fraction",
        "n_points_bool", "n_points_zero", "alpha_str", "alpha_bool", "probs_str",
        "probs_mixed", "probs_bool"])
def test_bad_setting_is_a_plain_value_error(call, setting):
    with pytest.raises(ValueError, match=setting) as caught:
        call(np.arange(100.0))
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("samples", [[1.5, 2.5], [1.0, np.nan], [1.0, 1e30], [-np.inf],
                                     [2.0 ** 63]],
                         ids=["fraction", "nan", "beyond_int64", "inf", "int64_edge"])
def test_histogram_rejects_what_no_integer_bin_holds(samples):
    with pytest.raises(DataError, match="histogram needs"):
        histogram(np.array(samples))


def test_histogram_bins_integral_floats():
    values, counts = histogram(np.array([2.0, -2.0 ** 63, 2.0]))
    assert (values.tolist(), counts.tolist()) == ([-2 ** 63, 2], [1, 2])


@pytest.mark.parametrize("panel", [kde, histogram])
def test_empty_series_rejected(panel):
    with pytest.raises(DataError, match="needs at least 1 sample"):
        panel(np.array([]))


def test_summary_of_non_finite_trace_rejected():
    x = np.random.default_rng(4).normal(size=(200, 2))
    x[50, 1] = np.nan
    with pytest.raises(DataError, match="needs finite samples"):
        summary(trace_of({"x": x}))


class TestSummary:
    def test_constant_trace(self):
        t = trace_of({"c": np.full((400, ), 5.0).reshape(400,)})
        rows, text = summary(t)
        r = rows[0]
        assert (r.mean, r.sd, r.mc_error) == (5.0, 0.0, 0.0)
        assert (r.hpd_lower, r.hpd_upper) == (5.0, 5.0)
        assert "c:" in text and "95% HPD interval" in text

    def test_vector_variable_gets_two_rows(self):
        rng = np.random.default_rng(7)
        t = trace_of({"beta": rng.standard_normal((500, 2))})
        rows, text = summary(t)
        assert [r.name for r in rows] == ["beta__0", "beta__1"]
        assert text.count("beta:") == 1

    def test_vars_filter_and_unknown(self):
        rng = np.random.default_rng(8)
        t = trace_of({"a": rng.standard_normal((300,)),
                      "b": rng.standard_normal((300,))})
        rows, _ = summary(t, vars=["b"])
        assert [r.name for r in rows] == ["b"]
        with pytest.raises(UnknownVariable):
            summary(t, vars=["zzz"])

    def test_a_bare_string_names_one_variable(self):
        rng = np.random.default_rng(8)
        t = trace_of({"alpha": rng.standard_normal(300), "beta": rng.standard_normal((300, 2))})
        assert summary(t, vars="beta") == summary(t, vars=["beta"])
        assert list(traceplot_data(t, vars="alpha")) == ["alpha"]

    def test_layout_matches_reference_shape(self):
        rng = np.random.default_rng(9)
        t = trace_of({"alpha": rng.standard_normal((2000,))})
        _, text = summary(t)
        lines = text.splitlines()
        assert lines[0] == "alpha:"
        assert lines[2].startswith("  Mean")
        assert set(lines[3].strip()) == {"-"}
        assert lines[7] == "  Posterior quantiles:"
        assert lines[8].startswith("  2.5")
        assert lines[9].startswith("  |")

    def test_invariant_under_chain_reordering(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 400))
        layout = [("x", (), "float")]
        b1 = MemoryBackend()
        b1.start(layout, 2)
        for v in a:
            b1.record(0, {"x": v})
        for v in b:
            b1.record(1, {"x": v})
        b2 = MemoryBackend()
        b2.start(layout, 2)
        for v in b:
            b2.record(0, {"x": v})
        for v in a:
            b2.record(1, {"x": v})
        r1, _ = summary(b1.finish())
        r2, _ = summary(b2.finish())
        assert r1[0].mean == r2[0].mean
        assert r1[0].sd == r2[0].sd
        assert r1[0].quantiles == r2[0].quantiles
        assert (r1[0].hpd_lower, r1[0].hpd_upper) == (r2[0].hpd_lower, r2[0].hpd_upper)


@pytest.mark.parametrize("export", [
    summary, traceplot_data, lambda t, vars: write_plot_data(t, "plots", vars)],
    ids=["summary", "traceplot_data", "write_plot_data"])
def test_unknown_name_rejected_before_anything_is_written(export, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(16)
    t = trace_of({"a": rng.standard_normal(150),
                  "k": rng.integers(0, 3, size=150).astype(np.int64)}, dtypes={"k": "int"})
    for vars in (["zzz"], ["a", "zzz"], ["k", "zzz"]):
        with pytest.raises(UnknownVariable, match="^no variable 'zzz' in trace$"):
            export(t, vars=vars)
    assert list(tmp_path.iterdir()) == []


class TestTraceplotData:
    def test_kde_integrates_to_one(self):
        rng = np.random.default_rng(11)
        xs, ys = kde(rng.standard_normal(4000))
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=0.01)

    def test_kde_of_a_constant_series_is_a_narrow_peak(self):
        xs, ys = kde(np.full(10, 2.0), n_points=201)
        assert xs[-1] - xs[0] == pytest.approx(6e-8, rel=1e-6)  # a bandwidth of 1e-8
        assert xs[100] == 2.0 and np.argmax(ys) == 100
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=0.01)

    def test_discrete_gets_histogram(self):
        rng = np.random.default_rng(12)
        t = trace_of({"k": rng.integers(0, 5, size=(300,)).astype(np.int64)},
                     dtypes={"k": "int"})
        panels = traceplot_data(t)["k"]
        assert "hist" in panels and "density" not in panels
        values, counts = panels["hist"]
        assert counts.sum() == 300

    def test_vector_gives_two_panels_each(self):
        rng = np.random.default_rng(13)
        t = trace_of({"beta": rng.standard_normal((200, 2))})
        data = traceplot_data(t)
        assert set(data) == {"beta__0", "beta__1"}
        for panels in data.values():
            assert "density" in panels and "draws" in panels

    def test_histogram_bins_each_value_drawn(self):
        # one bin per value drawn: a wide span costs nothing, and no bin is empty
        values, counts = histogram(np.array([7, 3, 5, 5, -2**63, 2**63 - 1]))
        np.testing.assert_array_equal(values, [-2**63, 3, 5, 7, 2**63 - 1])
        np.testing.assert_array_equal(counts, [1, 1, 2, 1, 1])

    def test_file_naming(self, tmp_path):
        rng = np.random.default_rng(14)
        t = trace_of({"alpha": rng.standard_normal((150,)),
                      "beta": rng.standard_normal((150, 2)),
                      "k": rng.integers(0, 3, size=(150,)).astype(np.int64)},
                     dtypes={"k": "int"})
        paths = write_plot_data(t, str(tmp_path))
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == sorted([
            "alpha_density.csv", "alpha_draws.csv",
            "beta__0_density.csv", "beta__0_draws.csv",
            "beta__1_density.csv", "beta__1_draws.csv",
            "k_hist.csv", "k_draws.csv",
        ])
        for name, header in [("alpha_density", "x,density"), ("alpha_draws", "draw,value"),
                             ("k_hist", "x,count")]:
            assert (tmp_path / f"{name}.csv").read_text().split("\n")[0] == header

    def test_rows_read_back_exactly(self, tmp_path):
        rng = np.random.default_rng(15)
        a = rng.standard_normal(150) * 1e-7
        k = rng.integers(-4, 3, size=150).astype(np.int64)
        t = trace_of({"a": a, "k": k}, dtypes={"k": "int"})
        write_plot_data(t, str(tmp_path))
        plots = traceplot_data(t)

        def rows(name):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
            return [line.split(",") for line in lines]

        xs, ys = plots["a"]["density"]
        assert [(float(x), float(y)) for x, y in rows("a_density")] == list(zip(xs, ys))
        assert [(int(i), float(v)) for i, v in rows("a_draws")] == list(enumerate(a))
        values, counts = histogram(k)
        assert [(int(x), int(c)) for x, c in rows("k_hist")] == list(zip(values, counts))
        # each panel is an (x, y) pair, the marginal first
        assert list(plots["k"]) == ["hist", "draws"]
        draws_x, draws_y = plots["k"]["draws"]
        assert np.array_equal(draws_x, np.arange(150)) and np.array_equal(draws_y, k)
        # ints are written as ints, not as floats
        assert [(int(i), int(v)) for i, v in rows("k_draws")] == list(enumerate(k))
