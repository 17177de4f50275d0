"""Trace storage: in-memory arrays and a durable on-disk text format.

The durable layout is a directory with a ``meta.json`` file describing the
variables, plus one ``chain-<k>.csv`` per chain.  Vector variables are
flattened row-major into ``name__i`` columns; floats are written with
``repr`` so every double round-trips exactly.  ``TextBackend`` keeps the
rows it writes and returns them from ``finish``; ``load`` reads a directory
back bit for bit and checks each chain's row count against ``meta.json``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

from .exceptions import (
    DataError,
    DuplicateName,
    IoFailure,
    ShapeMismatch,
    UnknownVariable,
)
from .graph import DTYPES, Point, as_dtype

Layout = Sequence[tuple[str, tuple, str]]  # (name, shape, dtype)


def _normalise(layout: Layout) -> list[tuple[str, tuple, str]]:
    return [(name, tuple(shape), dtype) for name, shape, dtype in layout]


def flat_names(name: str, shape: tuple) -> list[str]:
    if shape == ():
        return [name]
    n = int(np.prod(shape, dtype=int))
    return [f"{name}__{i}" for i in range(n)]


def claim_columns(taken: set, columns) -> list[str]:
    """Each (name, shape) of ``columns`` with the trace columns ``flat_names``
    gives it.  A name that is not a string, is empty, or holds ``,`` ``/``
    ``\\``, a line break or a NUL cannot head a CSV column or name a plot
    file; it, and one met twice or already in ``taken``, raises
    ``DuplicateName``."""
    claimed = []
    for name, shape in columns:
        if type(name) is not str or not name or any(c in name for c in ",/\\\n\r\0"):
            raise DuplicateName(f"variable name {name!r} cannot name a trace column")
        claimed += [name] + flat_names(name, shape) if shape else [name]
    seen = set(taken)
    for n in claimed:
        if n in seen:
            raise DuplicateName(f"variable name {n!r} already in use")
        seen.add(n)
    return claimed


def _header(layout: Layout) -> str:
    """The CSV header line of a chain file, without its newline."""
    return ",".join(col for name, shape, _ in layout for col in flat_names(name, shape))


class Trace:
    """Ordered draws per chain, queryable by variable name or position."""

    def __init__(self, layout: Layout, chains: list[dict[str, np.ndarray]]):
        self.layout = _normalise(layout)
        self.chains = chains

    @property
    def var_shapes(self) -> dict[str, tuple]:
        return {name: shape for name, shape, _ in self.layout}

    @property
    def var_dtypes(self) -> dict[str, str]:
        return {name: dtype for name, _, dtype in self.layout}

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    def chain_length(self, chain: int = 0) -> int:
        first = self.layout[0][0]
        return self.chains[chain][first].shape[0]

    @property
    def names(self) -> list[str]:
        return [name for name, _, _ in self.layout]

    def __len__(self) -> int:
        return sum(self.chain_length(c) for c in range(self.n_chains))

    def get(self, name: str) -> np.ndarray:
        if name not in self.var_shapes:
            raise UnknownVariable(f"no variable {name!r} in trace")
        return np.concatenate([c[name] for c in self.chains], axis=0)

    def point(self, idx: int, chain: int = -1) -> Point:
        data = self.chains[chain]
        return {name: np.array(data[name][idx]) for name in self.names}

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.get(key)
        if isinstance(key, (int, np.integer)):
            return self.point(int(key), chain=-1)
        raise TypeError(f"trace indices are variable names or draw positions, got {key!r}")


def _row_from_point(layout: Layout, point: Mapping) -> list[np.ndarray]:
    row = []
    for name, shape, dtype in layout:
        if name not in point:
            raise UnknownVariable(f"recorded point is missing traced variable {name!r}")
        arr = np.asarray(point[name])
        if arr.shape != shape:
            raise ShapeMismatch(f"traced variable {name!r}: shape {arr.shape} != {shape}")
        row.append(np.array(as_dtype(arr, dtype, name)))  # a copy; an int is never truncated
    return row


def _stack(layout: Layout, rows: list) -> dict[str, np.ndarray]:
    """One array per variable from rows of per-variable values."""
    return {name: np.array([row[j] for row in rows], dtype=DTYPES[dtype])
            .reshape((len(rows),) + shape)
            for j, (name, shape, dtype) in enumerate(layout)}


class MemoryBackend:
    """Keeps every recorded row in RAM."""

    def __init__(self):
        self.layout: Layout | None = None
        self._rows: list[list[list[np.ndarray]]] = []

    def start(self, layout: Layout, chains: int) -> None:
        self.layout = _normalise(layout)
        self._rows = [[] for _ in range(chains)]

    def _check_chain(self, chain: int) -> None:
        if not 0 <= chain < len(self._rows):
            raise ShapeMismatch(f"chain {chain} is out of range for a trace of "
                                f"{len(self._rows)} chains")

    def record(self, chain: int, point: Mapping) -> None:
        self._check_chain(chain)
        self._rows[chain].append(_row_from_point(self.layout, point))

    def finish(self) -> Trace:
        return Trace(self.layout, [_stack(self.layout, rows) for rows in self._rows])


class TextBackend(MemoryBackend):
    """A ``MemoryBackend`` that also writes one CSV per chain under a
    directory, plus a metadata file; ``finish`` returns the rows it kept."""

    def __init__(self, directory: str):
        super().__init__()
        self.directory = str(directory)
        self._files = []

    def start(self, layout: Layout, chains: int) -> None:
        super().start(layout, chains)
        self._files = []
        path = self.directory
        try:
            os.makedirs(path, exist_ok=True)
            for k in range(chains):
                path = os.path.join(self.directory, f"chain-{k}.csv")
                self._files.append(open(path, "w", encoding="utf-8", newline="\n"))
                self._files[-1].write(_header(self.layout) + "\n")
        except OSError as e:
            for f in self._files:
                f.close()
            raise IoFailure(f"cannot create trace file {path!r}: {e}") from e

    def record(self, chain: int, point: Mapping) -> None:
        self._check_chain(chain)
        row = _row_from_point(self.layout, point)
        # tolist gives Python ints and floats; repr writes each float so it reads back exactly
        line = ",".join(repr(x) for arr in row for x in arr.ravel().tolist())
        try:
            self._files[chain].write(line + "\n")
        except OSError as e:
            raise IoFailure(f"cannot write to trace chain file: {e}") from e
        self._rows[chain].append(row)

    def finish(self) -> Trace:
        meta = {
            "version": 1,
            "vars": [{"name": n, "shape": list(s), "dtype": d} for n, s, d in self.layout],
            "chains": len(self._rows),
            "draws": len(self._rows[0]) if self._rows else 0,
        }
        try:
            for f in self._files:
                f.close()
            with open(os.path.join(self.directory, "meta.json"), "w",
                      encoding="utf-8") as f:
                json.dump(meta, f, indent=1)
                f.write("\n")
        except OSError as e:
            raise IoFailure(f"cannot finalize trace directory: {e}") from e
        return super().finish()


def _first_line(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.readline()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"unreadable chain file {path!r}: {e}") from None


def load(directory: str) -> Trace:
    """Reload a trace written by ``TextBackend``; values are reproduced exactly.
    An unreadable file or a broken rule of the format raises ``DataError``."""
    path = os.path.join(directory, "meta.json")
    try:
        with open(path, encoding="utf-8") as f:
            meta = json.load(f)
    except FileNotFoundError:
        raise DataError(f"no metadata file in {directory!r}") from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"unreadable metadata file {path!r}: {e}") from None
    try:
        version = meta["version"]
        if type(version) is not int or version != 1:
            raise DataError(f"unsupported trace version {version!r}")
        layout = [(v["name"], v["shape"], v["dtype"]) for v in meta["vars"]]
        n_chains, draws = meta["chains"], meta["draws"]
    except (KeyError, TypeError) as e:
        raise DataError(f"malformed metadata in {directory!r}: {e}") from None
    if not layout:
        raise DataError(f"metadata in {directory!r} lists no variables")
    if type(n_chains) is not int or n_chains < 1:
        raise DataError(f"metadata in {directory!r}: chains must be an int >= 1, "
                        f"got {n_chains!r}")
    if type(draws) is not int or draws < 0:
        raise DataError(f"metadata in {directory!r}: draws must be an int >= 0, "
                        f"got {draws!r}")
    for name, shape, dtype in layout:
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise DataError(f"metadata in {directory!r}: shape of {name!r} must be "
                            f"a list of ints >= 0, got {shape!r}")
        if dtype not in DTYPES:
            raise DataError(f"metadata in {directory!r}: dtype of {name!r} must be "
                            f"'int' or 'float', got {dtype!r}")
    layout = _normalise(layout)
    # checked before any column name is built, so that the cost of a load follows
    # the size of its files, not the sizes that meta.json declares
    width = sum(math.prod(shape) for _, shape, _ in layout)
    path = os.path.join(directory, "chain-0.csv")
    if width and width != _first_line(path).count(",") + 1:
        raise DataError(f"chain file {path!r} header does not match metadata")
    try:
        claim_columns(set(), [(name, shape) for name, shape, _ in layout])
    except ValueError as e:
        raise DataError(f"metadata in {directory!r}: {e}") from None

    header = _header(layout)
    ends = np.cumsum([len(flat_names(name, shape)) for name, shape, _ in layout]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    convs = [DTYPES[dtype].type
             for (_, _, dtype), (a, b) in zip(layout, spans) for _ in range(a, b)]

    chains = []
    for k in range(n_chains):
        path = os.path.join(directory, f"chain-{k}.csv")
        try:
            with open(path, encoding="utf-8") as f:
                if f.readline().rstrip("\n") != header:
                    raise DataError(f"chain file {path!r} header does not match metadata")
                rows = []
                for line_no, line in enumerate(f, start=2):
                    cells = line.rstrip("\n").split(",")
                    try:
                        if len(cells) != len(convs):
                            raise ValueError(f"{len(cells)} cells, the header has {len(convs)}")
                        if not line.endswith("\n"):
                            raise ValueError("the row is cut short: it has no newline")
                        values = [conv(x) for conv, x in zip(convs, cells)]
                    except (ValueError, OverflowError) as e:
                        raise DataError(f"chain file {path!r} line {line_no}: {e}") from None
                    rows.append([values[a:b] for a, b in spans])
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"unreadable chain file {path!r}: {e}") from None
        # meta counts chain 0; chains run in order, so only a later chain may stop short
        if len(rows) > draws or (k == 0 and len(rows) != draws):
            raise DataError(f"chain file {path!r} holds {len(rows)} rows; the metadata "
                            f"lists {draws} draws")
        chains.append(_stack(layout, rows))
    return Trace(layout, chains)
