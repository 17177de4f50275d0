"""Posterior summaries and plot-data export.

Location statistics (mean, sd, quantiles, HPD) are computed on sorted copies
so reordering whole chains cannot change them; MC error and ESS keep the
sequential structure they need.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .backends import Trace, flat_names
from .exceptions import DataError, MiniprobError
from .graph import _count, as_dtype

QUANTILES = (2.5, 25.0, 50.0, 75.0, 97.5)


def quantiles(samples, probs=QUANTILES) -> np.ndarray:
    """Linear-interpolation quantiles of the pooled samples (percent units)."""
    x = _finite(samples, "quantiles")
    p = np.asarray(probs)
    if p.dtype.kind not in "iuf" or not np.all((0 <= p) & (p <= 100)):
        raise ValueError(f"quantiles needs real probs in percent, in [0, 100], got {probs!r}")
    if x.size == 0:
        raise DataError("quantiles needs at least 1 sample")
    return np.quantile(x, p.astype(np.float64) / 100.0, method="linear")


def _finite(samples, what: str, dtype: str = "float") -> np.ndarray:
    """``samples`` as a flat array read by ``as_dtype`` at ``dtype``; a value
    it rejects, NaN or infinity raises ``DataError``, since no statistic of
    them would be meaningful."""
    try:
        x = as_dtype(samples, dtype, "samples").ravel()
    except MiniprobError as e:
        raise DataError(f"{what} needs {dtype} samples: {e}") from None
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise DataError(f"{what} needs finite samples, got {bad} NaN or infinite")
    return x


def hpd(samples, alpha: float = 0.05) -> tuple[float, float]:
    """Narrowest interval over sorted samples containing a 1-alpha fraction.

    Among all windows of m = ceil((1-alpha)*n) consecutive order statistics,
    returns the (start, end) values of the minimum-width window, earliest
    start on ties.
    """
    if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise ValueError(f"hpd needs a real alpha with 0 < alpha < 1, got {alpha!r}")
    x = np.sort(_finite(samples, "hpd"))
    n = x.size
    if n < 2:
        raise DataError("hpd needs at least 2 samples")
    m = min(n, int(math.ceil((1.0 - alpha) * n)))
    widths = x[m - 1:] - x[:n - m + 1]
    i = int(np.argmin(widths))
    return float(x[i]), float(x[i + m - 1])


MC_BATCHES = 20  # mc_error's default batch count, so the fewest samples a summary takes


def mc_error(samples, batches: int = MC_BATCHES) -> float:
    """Batch-means Monte Carlo standard error of the mean."""
    batches = _count("batches", batches, 2)
    x = _finite(samples, "mc_error")
    n = x.size
    if n < batches:
        raise DataError(f"mc_error needs at least {batches} samples, got {n}")
    size = n // batches
    means = x[:batches * size].reshape(batches, size).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(batches))


def ess(samples) -> float:
    """Effective sample size: n / (1 + 2 sum of autocorrelations), with the
    sum truncated by Geyer's initial-positive-sequence rule.  A constant
    series has ESS 0 by convention."""
    x = _finite(samples, "ess")
    n = x.size
    if n < 100:
        raise DataError(f"ess needs at least 100 samples, got {n}")
    if x.min() == x.max():  # constant, though its mean may round off its value
        return 0.0
    x = x - x.mean()
    var0 = float(np.dot(x, x)) / n
    if var0 == 0.0:
        return 0.0
    # autocovariances via FFT
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n].real / n
    rho = acov / acov[0]
    # Geyer: sum rho over pairs while the pair sums stay positive
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau = max(tau, 1e-8)
    return float(n / tau)


@dataclass
class SummaryRow:
    name: str
    mean: float
    sd: float
    mc_error: float
    hpd_lower: float
    hpd_upper: float
    quantiles: dict = field(default_factory=dict)


def _flat_series(trace: Trace, name: str):
    """(flat_name, 1-D series) for each component of a variable; an unknown
    ``name`` raises ``UnknownVariable`` from ``Trace.get`` on the call."""
    values = trace[name]
    cols = flat_names(name, trace.var_shapes[name])
    return zip(cols, values.reshape(values.shape[0], len(cols)).T)


@contextlib.contextmanager
def _column(col: str):
    """Put the trace column ``col`` in front of a sample error from the block."""
    try:
        yield
    except DataError as e:
        raise type(e)(f"{col}: {e}") from None


def _names(trace: Trace, vars) -> list[str]:
    """The variables ``vars`` names (all of ``trace``'s if None; a str is one)."""
    return trace.names if vars is None else [vars] if isinstance(vars, str) else list(vars)


def _rows_for(trace: Trace, name: str) -> list[SummaryRow]:
    rows = []
    for col, series in _flat_series(trace, name):
        ordered = np.sort(series)
        with _column(col):
            lo, hi = hpd(ordered)
            rows.append(SummaryRow(
                name=col,
                mean=float(np.mean(ordered)),
                sd=float(np.std(ordered)),
                mc_error=mc_error(series),
                hpd_lower=lo,
                hpd_upper=hi,
                quantiles={p: float(v) for p, v in zip(QUANTILES, quantiles(ordered))},
            ))
    return rows


_STAT_HEADER = ("  Mean             SD               MC Error         95% HPD interval\n"
                "  -------------------------------------------------------------------\n")
_Q_HEADER = ("  2.5            25             50             75             97.5\n"
             "  |--------------|==============|==============|--------------|\n")


def _format_block(name: str, rows: list[SummaryRow]) -> str:
    lines = [f"{name}:", "", _STAT_HEADER.rstrip("\n"), ""]
    for r in rows:
        hpd_str = f"[{r.hpd_lower:.3f}, {r.hpd_upper:.3f}]"
        lines.append(f"  {r.mean:<17.3f}{r.sd:<17.3f}{r.mc_error:<17.3f}{hpd_str}")
    lines += ["", "  Posterior quantiles:", _Q_HEADER.rstrip("\n"), ""]
    for r in rows:
        q = [r.quantiles[p] for p in QUANTILES]
        lines.append("  " + "".join(f"{v:<15.3f}" for v in q[:4]) + f"{q[4]:.3f}")
    lines.append("")
    return "\n".join(lines)


def summary(trace: Trace, vars=None) -> tuple[list[SummaryRow], str]:
    """Per-component posterior statistics plus the formatted text report."""
    all_rows: list[SummaryRow] = []
    blocks = []
    for name in _names(trace, vars):
        rows = _rows_for(trace, name)
        all_rows.extend(rows)
        blocks.append(_format_block(name, rows))
    return all_rows, "\n\n".join(blocks)


def kde(samples, n_points: int = 200):
    """Gaussian kernel density with Scott's bandwidth over the data range
    extended by three bandwidths."""
    n_points = _count("n_points", n_points, 1)
    x = _finite(samples, "kde")
    n = x.size
    if n == 0:
        raise DataError("kde needs at least 1 sample")
    bw = float(np.std(x)) * n ** (-1.0 / 5.0) or 1e-8  # a constant series gets 1e-8
    grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, n_points)
    dens = np.zeros(n_points)
    norm = 1.0 / (n * bw * math.sqrt(2.0 * math.pi))
    step = max(1, 10 ** 7 // max(n, 1))
    for i in range(0, n_points, step):
        z = (grid[i:i + step, None] - x[None, :]) / bw
        dens[i:i + step] = np.exp(-0.5 * z * z).sum(axis=1) * norm
    return grid, dens


def histogram(samples):
    """Integer-bin histogram: one bin per distinct value, in ascending order,
    so its size is bounded by the number of samples, not by their range.
    Samples that are not integers within int64 raise ``DataError``."""
    x = _finite(samples, "histogram", "int")
    if x.size == 0:
        raise DataError("histogram needs at least 1 sample")
    return np.unique(x, return_counts=True)


def traceplot_data(trace: Trace, vars=None) -> dict:
    """Per flattened component, its panels in order, each an (x, y) pair: the
    marginal (``"density"``, a KDE, for real variables; ``"hist"``, an
    integer histogram, for discrete ones), then ``"draws"``, (draw index,
    value).  A name not in the trace raises ``UnknownVariable``."""
    out = {}
    for name in _names(trace, vars):
        columns = _flat_series(trace, name)  # first, so an unknown name is UnknownVariable
        discrete = trace.var_dtypes[name] == "int"
        for col, series in columns:
            with _column(col):
                panels = {"hist": histogram(series)} if discrete else {"density": kde(series)}
            panels["draws"] = (np.arange(len(series)), series)
            out[col] = panels
    return out


_PLOT_HEADERS = {"density": "x,density\n", "hist": "x,count\n", "draws": "draw,value\n"}


def write_plot_data(trace: Trace, out_dir: str, vars=None) -> list[str]:
    """One CSV per variable per panel under ``out_dir``; returns the paths.
    ``tolist`` turns each column into Python floats, written by ``repr`` so
    they read back exactly, or into ints.  ``out_dir`` is made only once
    every panel is computed."""
    data = traceplot_data(trace, vars)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for col, panels in data.items():
        for panel, (xs, ys) in panels.items():
            path = os.path.join(out_dir, f"{col}_{panel}.csv")
            rows = zip(np.asarray(xs).tolist(), np.asarray(ys).tolist())
            with open(path, "w", encoding="utf-8") as f:
                f.write(_PLOT_HEADERS[panel])
                f.writelines(f"{x!r},{y!r}\n" for x, y in rows)
            written.append(path)
    return written
