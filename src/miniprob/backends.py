"""Trace storage: in-memory arrays and a durable on-disk text format.

The durable layout is a directory with a ``meta.json`` file describing the
variables, plus one ``chain-<k>.csv`` per chain.  Vector variables are
flattened row-major into ``name__i`` columns; floats are written with
``repr`` so every double round-trips exactly and a reloaded trace equals the
in-memory one bit for bit.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence

import numpy as np

from .exceptions import CorruptMeta, IoFailure, MissingChainFile, MissingInput, UnknownVariable
from .graph import Point

Layout = Sequence[tuple[str, tuple, str]]  # (name, shape, dtype)


def flat_names(name: str, shape: tuple) -> list[str]:
    if shape == ():
        return [name]
    n = int(np.prod(shape, dtype=int))
    return [f"{name}__{i}" for i in range(n)]


class Trace:
    """Ordered draws per chain, queryable by variable name or position."""

    def __init__(self, layout: Layout, chains: list[dict[str, np.ndarray]]):
        self.layout = [(name, tuple(shape), dtype) for name, shape, dtype in layout]
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
            raise MissingInput(f"recorded point is missing traced variable {name!r}")
        arr = np.asarray(point[name])
        if arr.shape != tuple(shape):
            raise MissingInput(f"traced variable {name!r}: shape {arr.shape} != {tuple(shape)}")
        row.append(arr.astype(np.int64 if dtype == "int" else np.float64))
    return row


class MemoryBackend:
    """Keeps every recorded row in RAM."""

    def __init__(self):
        self.layout: Layout | None = None
        self._rows: list[list[list[np.ndarray]]] = []

    def start(self, layout: Layout, chains: int) -> None:
        self.layout = [(n, tuple(s), d) for n, s, d in layout]
        self._rows = [[] for _ in range(chains)]

    def record(self, chain: int, point: Mapping) -> None:
        self._rows[chain].append(_row_from_point(self.layout, point))

    def finish(self) -> Trace:
        chains = []
        for rows in self._rows:
            data = {}
            for j, (name, shape, dtype) in enumerate(self.layout):
                np_dtype = np.int64 if dtype == "int" else np.float64
                stacked = np.empty((len(rows),) + tuple(shape), dtype=np_dtype)
                for i, row in enumerate(rows):
                    stacked[i] = row[j]
                data[name] = stacked
            chains.append(data)
        return Trace(self.layout, chains)


def _format_value(v, dtype: str) -> str:
    if dtype == "int":
        return str(int(v))
    return repr(float(v))


class TextBackend:
    """Writes one CSV per chain under a directory, plus a metadata file."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.layout: Layout | None = None
        self._files = []
        self._counts: list[int] = []

    def start(self, layout: Layout, chains: int) -> None:
        self.layout = [(n, tuple(s), d) for n, s, d in layout]
        header = ",".join(col for name, shape, _ in self.layout
                          for col in flat_names(name, shape))
        try:
            os.makedirs(self.directory, exist_ok=True)
            for k in range(chains):
                f = open(os.path.join(self.directory, f"chain-{k}.csv"),
                         "w", encoding="utf-8", newline="\n")
                f.write(header + "\n")
                self._files.append(f)
        except OSError as e:
            raise IoFailure(f"cannot create trace directory {self.directory!r}: {e}") from e
        self._counts = [0] * chains

    def record(self, chain: int, point: Mapping) -> None:
        row = _row_from_point(self.layout, point)
        cells = []
        for arr, (_, _, dtype) in zip(row, self.layout):
            cells.extend(_format_value(v, dtype) for v in np.ravel(arr, order="C"))
        try:
            self._files[chain].write(",".join(cells) + "\n")
        except OSError as e:
            raise IoFailure(f"cannot write to trace chain file: {e}") from e
        self._counts[chain] += 1

    def finish(self) -> Trace:
        try:
            for f in self._files:
                f.close()
            meta = {
                "version": 1,
                "vars": [{"name": n, "shape": list(s), "dtype": d}
                         for n, s, d in self.layout],
                "chains": len(self._files),
                "draws": self._counts[0] if self._counts else 0,
            }
            with open(os.path.join(self.directory, "meta.json"), "w",
                      encoding="utf-8") as f:
                json.dump(meta, f, indent=1)
                f.write("\n")
        except OSError as e:
            raise IoFailure(f"cannot finalize trace directory: {e}") from e
        return load(self.directory)


def load(directory: str) -> Trace:
    """Reload a trace written by ``TextBackend``; values are reproduced exactly."""
    meta_path = os.path.join(directory, "meta.json")
    try:
        with open(meta_path, encoding="utf-8") as f:
            meta = json.load(f)
    except FileNotFoundError:
        raise CorruptMeta(f"no metadata file in {directory!r}") from None
    except (OSError, json.JSONDecodeError) as e:
        raise CorruptMeta(f"unreadable metadata in {directory!r}: {e}") from None
    try:
        if meta["version"] != 1:
            raise CorruptMeta(f"unsupported trace version {meta['version']!r}")
        layout = [(v["name"], v["shape"], v["dtype"]) for v in meta["vars"]]
        n_chains = meta["chains"]
    except (KeyError, TypeError) as e:
        raise CorruptMeta(f"malformed metadata in {directory!r}: {e}") from None
    if not layout:
        raise CorruptMeta(f"metadata in {directory!r} lists no variables")
    if type(n_chains) is not int or n_chains < 1:
        raise CorruptMeta(f"metadata in {directory!r}: chains must be an int >= 1, "
                          f"got {n_chains!r}")
    names = set()
    for name, shape, dtype in layout:
        if type(name) is not str or name in names:
            raise CorruptMeta(f"metadata in {directory!r}: variable name {name!r} "
                              f"is not a string or is listed twice")
        names.add(name)
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise CorruptMeta(f"metadata in {directory!r}: shape of {name!r} must be "
                              f"a list of ints >= 0, got {shape!r}")
        if dtype not in ("int", "float"):
            raise CorruptMeta(f"metadata in {directory!r}: dtype of {name!r} must be "
                              f"'int' or 'float', got {dtype!r}")
    layout = [(name, tuple(shape), dtype) for name, shape, dtype in layout]

    expected_header = ",".join(col for name, shape, _ in layout
                               for col in flat_names(name, shape))
    sizes = [int(np.prod(s, dtype=int)) if s else 1 for _, s, _ in layout]
    convs = [np.int64 if dtype == "int" else float
             for (_, _, dtype), size in zip(layout, sizes) for _ in range(size)]

    chains = []
    for k in range(n_chains):
        path = os.path.join(directory, f"chain-{k}.csv")
        if not os.path.exists(path):
            raise MissingChainFile(f"chain file {path!r} is missing")
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            if header != expected_header:
                raise CorruptMeta(f"chain file {path!r} header does not match metadata")
            rows = []
            for line_no, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                cells = line.rstrip("\n").split(",")
                try:
                    if len(cells) != len(convs):
                        raise ValueError(f"{len(cells)} cells, the header has {len(convs)}")
                    rows.append([conv(x) for conv, x in zip(convs, cells)])
                except (ValueError, OverflowError) as e:
                    raise CorruptMeta(f"chain file {path!r} line {line_no}: {e}") from None
        data = {}
        pos = 0
        for (name, shape, dtype), size in zip(layout, sizes):
            np_dtype = np.int64 if dtype == "int" else np.float64
            arr = np.array([row[pos:pos + size] for row in rows], dtype=np_dtype)
            data[name] = arr.reshape((len(rows),) + shape)
            pos += size
        chains.append(data)
    return Trace(layout, chains)
