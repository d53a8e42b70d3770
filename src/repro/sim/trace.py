"""Columnar recording of simulation signals, in RAM or out of core.

Traces feed two consumers: Bayesian-network training (golden runs) and
experiment reporting (time series for the case-study figures).  Two
representations share one read API:

* :class:`Trace` — the append-only in-RAM recorder the simulator writes
  into (and the reference representation everywhere).  Appends go to
  plain Python lists (cheap per tick); the numpy views are materialized
  lazily and cached, so golden-trace consumers that read the same
  columns thousands of times (scene mining, BN training) stop paying a
  list->array conversion per access.  Cached arrays are marked
  read-only because they are shared between callers.
* :class:`StoredTrace` — a read-only handle onto a trace spooled to
  disk by :class:`TraceStore`.  Columns are served as views of one
  memory-mapped ``.npy`` matrix, so a campaign holding every golden
  trace keeps O(file handles) resident, not O(total samples), and a
  handle pickles as just its path (workers spool, the driver maps).

``float64`` round-trips bit-for-bit through the ``.npy`` spool, so any
consumer of the columnar read API (``as_arrays``/``column``/``window``/
``last``) computes identical results from either representation.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from pathlib import Path

import numpy as np


class Trace:
    """An append-only, column-aligned record of named float signals."""

    def __init__(self):
        self._columns: dict[str, list[float]] = {}
        self._length = 0
        self._arrays: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> list[str]:
        """Recorded signal names (insertion order)."""
        return list(self._columns)

    @classmethod
    def from_columns(cls, columns: Mapping[str, list[float]]) -> "Trace":
        """Rebuild a trace from columnar data (persistence round-trip)."""
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        trace = cls()
        trace._columns = {name: [float(v) for v in values]
                          for name, values in columns.items()}
        trace._length = lengths.pop() if lengths else 0
        return trace

    def record(self, sample: Mapping[str, float]) -> None:
        """Append one row; every row must carry the same signal set."""
        if self._length == 0 and not self._columns:
            for name in sample:
                self._columns[name] = []
        if set(sample) != set(self._columns):
            missing = set(self._columns) - set(sample)
            extra = set(sample) - set(self._columns)
            raise ValueError(
                f"row schema mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}")
        for name, value in sample.items():
            self._columns[name].append(float(value))
        self._length += 1
        self._arrays = None  # invalidate the cached numpy views

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Columns as numpy arrays (cached, read-only, shared)."""
        if self._arrays is None:
            arrays = {}
            for name, values in self._columns.items():
                array = np.asarray(values)
                array.flags.writeable = False
                arrays[name] = array
            self._arrays = arrays
        return dict(self._arrays)

    def column(self, name: str) -> np.ndarray:
        """One column as a numpy array (cached, read-only, shared)."""
        if self._arrays is not None:
            return self._arrays[name]
        return self.as_arrays()[name]

    def last(self, name: str) -> float:
        """Most recent value of a signal."""
        values = self._columns[name]
        if not values:
            raise IndexError(f"no samples recorded for {name!r}")
        return values[-1]

    def window(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Slice every column to ``[start:stop]``."""
        return {name: array[start:stop]
                for name, array in self.as_arrays().items()}

    #: Non-finite cell spellings, matching
    #: :func:`repro.core.persistence.encode_float` (defined locally —
    #: ``sim`` must not import ``core``).  ``%.6g`` used to render these
    #: as ``inf``/``nan``, which no reader decoded.
    _NONFINITE_TO_STR = {float("inf"): "Infinity",
                         float("-inf"): "-Infinity"}
    _STR_TO_NONFINITE = {"Infinity": float("inf"),
                         "-Infinity": float("-inf"),
                         "NaN": float("nan")}

    @classmethod
    def _encode_cell(cls, value: float) -> str:
        if value != value:                       # NaN
            return "NaN"
        spelled = cls._NONFINITE_TO_STR.get(value)
        return spelled if spelled is not None else f"{value:.6g}"

    @classmethod
    def _decode_cell(cls, cell: str) -> float:
        return cls._STR_TO_NONFINITE.get(cell) or float(cell)

    def to_csv(self) -> str:
        """Render the whole trace as CSV text (header + one row per tick).

        Finite values keep the compact ``%.6g`` rendering; non-finite
        values (the ``inf`` safety potentials of unobstructed runs, NaNs
        from degenerate kinematics) are spelled ``Infinity`` /
        ``-Infinity`` / ``NaN`` exactly like the JSONL record streams,
        and :meth:`from_csv` decodes them losslessly.
        """
        names = self.columns
        lines = [",".join(names)]
        for i in range(self._length):
            lines.append(",".join(
                self._encode_cell(self._columns[name][i])
                for name in names))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """Rebuild a trace from :meth:`to_csv` output."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return cls()
        names = lines[0].split(",")
        if len(set(names)) != len(names):
            # A duplicate header would silently collapse into one dict
            # key and mis-align every subsequent row.
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"CSV header repeats columns {duplicates}")
        columns: dict[str, list[float]] = {name: [] for name in names}
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(names):
                raise ValueError(f"CSV row has {len(cells)} cells, "
                                 f"expected {len(names)}")
            for name, cell in zip(names, cells):
                columns[name].append(cls._decode_cell(cell))
        return cls.from_columns(columns)

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` output to a file."""
        from pathlib import Path
        Path(path).write_text(self.to_csv())

    @classmethod
    def load_csv(cls, path) -> "Trace":
        """Read a trace back from :meth:`save_csv` output."""
        return cls.from_csv(Path(path).read_text())


class StoredTrace:
    """Read-only view of a trace spooled to disk by :class:`TraceStore`.

    Offers the columnar read API of :class:`Trace` (``as_arrays``,
    ``column``, ``window``, ``last``, ``columns``, ``len``) over one
    memory-mapped ``.npy`` matrix, opened lazily on first access — a
    handle is just a path until someone reads through it, and it
    pickles as just the path, which is how golden traces cross the
    process pool without shipping their samples.
    """

    def __init__(self, data_path: str | Path):
        self._data_path = Path(data_path)
        self._names: list[str] | None = None
        self._rows: int | None = None
        self._data: np.ndarray | None = None

    # -- lazy open ---------------------------------------------------------

    @property
    def path(self) -> Path:
        """The backing ``.npy`` matrix file."""
        return self._data_path

    def _manifest_path(self) -> Path:
        return self._data_path.with_suffix(".json")

    def _ensure(self) -> None:
        if self._names is not None:
            return
        manifest = json.loads(self._manifest_path().read_text())
        names = list(manifest["columns"])
        rows = int(manifest["rows"])
        if rows == 0:
            # numpy cannot mmap a zero-byte payload; an empty trace
            # needs no file access at all.
            data = np.zeros((0, len(names)))
        else:
            data = np.load(self._data_path, mmap_mode="r")
            if data.shape != (rows, len(names)):
                raise ValueError(
                    f"stored trace {self._data_path} is "
                    f"{data.shape}, manifest says ({rows}, {len(names)})")
        data.flags.writeable = False
        self._names, self._rows, self._data = names, rows, data

    def __getstate__(self) -> dict:
        return {"data_path": str(self._data_path)}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["data_path"])

    # -- the Trace read API ------------------------------------------------

    def __len__(self) -> int:
        self._ensure()
        return self._rows

    @property
    def columns(self) -> list[str]:
        """Recorded signal names (insertion order)."""
        self._ensure()
        return list(self._names)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Columns as read-only views of the memory-mapped matrix."""
        self._ensure()
        return {name: self._data[:, j]
                for j, name in enumerate(self._names)}

    def column(self, name: str) -> np.ndarray:
        """One column as a read-only view of the mapped matrix."""
        self._ensure()
        return self._data[:, self._names.index(name)]

    def last(self, name: str) -> float:
        """Most recent value of a signal."""
        self._ensure()
        if not self._rows:
            raise IndexError(f"no samples recorded for {name!r}")
        return float(self._data[-1, self._names.index(name)])

    def window(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Slice every column to ``[start:stop]``."""
        return {name: array[start:stop]
                for name, array in self.as_arrays().items()}

    def to_trace(self) -> Trace:
        """Materialize an in-RAM :class:`Trace` copy (same values)."""
        return Trace.from_columns(self.as_arrays())

    def __repr__(self) -> str:
        return f"StoredTrace({str(self._data_path)!r})"


class TraceStore:
    """Spools completed traces to memory-mappable columnar files.

    One file set per trace name under ``root``: ``<name>.npy`` (the
    float64 sample matrix, rows x columns) plus ``<name>.json`` (column
    names and row count).  Writes go through the shared atomic
    write-then-rename helpers, data before manifest, so the manifest's
    existence commits a complete file set — concurrent writers of the
    same trace (shards sharing a ``cache_dir``) produce identical
    content and readers never observe a torn spool.
    """

    _DATA_SUFFIX = ".npy"
    _MANIFEST_SUFFIX = ".json"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _data_path(self, name: str) -> Path:
        if os.sep in name or name in (".", ".."):
            raise ValueError(f"trace name {name!r} is not a file name")
        return self.root / f"{name}{self._DATA_SUFFIX}"

    def put(self, name: str, trace) -> StoredTrace:
        """Spool ``trace`` (any columnar-read trace) and return a handle.

        Re-spooling an existing name overwrites it (identical content
        for identical traces, and a self-heal for corrupt spools).
        """
        # ``core`` is a layer above ``sim``, so the import is deferred
        # to call time; ``core.ioutil`` itself is dependency-free, so
        # this cannot cycle.
        from ..core.ioutil import write_text_atomic
        arrays = trace.as_arrays()
        names = list(arrays)
        rows = len(trace)
        matrix = np.empty((rows, len(names)))
        for j, column in enumerate(arrays.values()):
            matrix[:, j] = column
        self.root.mkdir(parents=True, exist_ok=True)
        data_path = self._data_path(name)
        # np.save straight into the tmp file (same write-then-rename
        # discipline as core/ioutil): buffering the ``.npy`` payload
        # in RAM first would hold a second full copy of the trace —
        # the very per-trace peak this spool exists to bound.
        tmp = data_path.with_name(f"{data_path.name}.tmp-{os.getpid()}")
        with open(tmp, "wb") as handle:
            np.save(handle, matrix)
        os.replace(tmp, data_path)
        write_text_atomic(data_path.with_suffix(self._MANIFEST_SUFFIX),
                          json.dumps({"columns": names, "rows": rows}))
        return StoredTrace(data_path)

    def get(self, name: str) -> StoredTrace | None:
        """A handle onto a previously spooled trace, or ``None``."""
        if not self.has(name):
            return None
        return StoredTrace(self._data_path(name))

    def has(self, name: str) -> bool:
        """Was a complete file set committed for ``name``?"""
        data_path = self._data_path(name)
        return (data_path.with_suffix(self._MANIFEST_SUFFIX).exists()
                and data_path.exists())

    def __contains__(self, name: str) -> bool:
        return self.has(name)
