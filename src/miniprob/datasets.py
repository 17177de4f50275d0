"""Bundled demo data: the 1851-1961 UK coal-mining disaster counts (with two
years missing, marked -999) and a 400-day daily-return fixture."""

from __future__ import annotations

import math
import os

import numpy as np

from .exceptions import DataError

MISSING_SENTINEL = -999

# Yearly disaster counts, 1851-1961.  -999 marks the two unrecorded years.
DISASTERS = np.array([
    4, 5, 4, 0, 1, 4, 3, 4, 0, 6, 3, 3, 4, 0, 2, 6,
    3, 3, 5, 4, 5, 3, 1, 4, 4, 1, 5, 5, 3, 4, 2, 5,
    2, 2, 3, 4, 2, 1, 3, -999, 2, 1, 1, 1, 1, 3, 0, 0,
    1, 0, 1, 1, 0, 0, 3, 1, 0, 3, 2, 2, 0, 1, 1, 1,
    0, 1, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0, 1, 1, 0, 2,
    3, 3, 1, -999, 2, 1, 1, 1, 1, 2, 4, 2, 0, 0, 1, 4,
    0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1,
], dtype=np.int64)

DISASTER_YEARS = np.arange(1851, 1962)


def disasters_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, mask, years); mask is true where the count is missing."""
    mask = DISASTERS == MISSING_SENTINEL
    return DISASTERS.copy(), mask, DISASTER_YEARS.copy()


def sp500_fixture_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "sp500_returns.csv")


def load_returns(path: str | None = None) -> np.ndarray:
    """Daily returns, one per line, most recent last; bundled fixture by
    default.  A missing file, a value that is not a finite number and fewer
    than 2 returns raise ``DataError`` naming the file (and the line)."""
    path = sp500_fixture_path() if path is None else path
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read returns file {path!r}: {e}") from None
    values = []
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                value = float(line)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"returns file {path!r} line {line_no}: "
                                f"{line!r} is not a finite number")
            values.append(value)
    if len(values) < 2:
        raise DataError(f"returns file {path!r} holds {len(values)} returns, "
                        "fewer than 2")
    return np.asarray(values, dtype=np.float64)
