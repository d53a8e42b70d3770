"""Checkpoint-resume support for the experiment engine.

Every injection experiment shares a bit-identical fault-free prefix with
the golden run of its scenario (the stack is deterministic given the
seed, and armed faults are inert before their start tick).  Capturing
the joint (world, pipeline) state at the eligible injection ticks of the
golden run lets validation fork each experiment from its prefix instead
of re-simulating from tick 0 — the snapshot-and-fork trick DriveFI/AVFI
use to inject into a *running* stack.

A :class:`Checkpoint` is picklable, so stores survive process-pool fan
out (workers inherit them through ``fork``) and ship across hosts.
Ladders are sparse: the campaign driver snapshots only the ticks its
jobs fork from, in the golden run when the jobs are known before it,
else (Bayesian mining) in one fault-free prefix replay when they are
dispatched.  Only golden-only collection keeps every eligible tick.
:class:`CheckpointStore` resolves an injection tick to the nearest
checkpoint at or before it, which is what makes any ladder safe for
any job: a fault at an uncaptured tick (a golden run that ended early,
a ladder captured for another job set) resumes from the nearest
earlier snapshot and replays the short gap fault-free before the fault
window opens.

Stores also persist to disk, one ladder at a time
(:meth:`CheckpointStore.save_scenario` /
:meth:`CheckpointStore.load_scenario`): one pickle file per scenario
plus a JSON index.  Pool workers load ladders from the shared directory
instead of receiving them through a forked address space, and
warm-started campaigns reuse checkpoint ladders across processes instead
of re-simulating them.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from ..ads.profiling import STAGE_TIMER
from ..ads.runtime import PipelineSnapshot
from ..sim.world import WorldSnapshot
from .ioutil import write_bytes_atomic

_INDEX_NAME = "index.json"
_FORMAT_VERSION = 2


@dataclass(frozen=True)
class Checkpoint:
    """Joint world + ADS state immediately *before* executing ``tick``.

    Resuming means restoring both snapshots into freshly built objects
    and running the loop from ``tick`` onward; the result is bit-for-bit
    the suffix of a full replay with the same seed.
    """

    scenario: str
    seed: int
    tick: int
    world: WorldSnapshot
    pipeline: PipelineSnapshot


class CheckpointStore:
    """Checkpoints of one campaign's golden runs, indexed for resume."""

    def __init__(self):
        self._by_scenario: dict[str, dict[int, Checkpoint]] = {}
        self._sorted_ticks: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(ticks) for ticks in self._by_scenario.values())

    def add(self, checkpoint: Checkpoint) -> None:
        """Register one checkpoint (replaces any previous one at its tick)."""
        per_scenario = self._by_scenario.setdefault(checkpoint.scenario, {})
        per_scenario[checkpoint.tick] = checkpoint
        self._sorted_ticks.pop(checkpoint.scenario, None)

    def add_all(self, checkpoints) -> None:
        """Register an iterable (or tick-keyed mapping) of checkpoints."""
        values = (checkpoints.values() if isinstance(checkpoints, dict)
                  else checkpoints)
        for checkpoint in values:
            self.add(checkpoint)

    def ticks(self, scenario: str) -> list[int]:
        """Captured ticks of a scenario, ascending."""
        cached = self._sorted_ticks.get(scenario)
        if cached is None:
            cached = sorted(self._by_scenario.get(scenario, ()))
            self._sorted_ticks[scenario] = cached
        return cached

    def has_scenario(self, scenario: str) -> bool:
        """True when at least one checkpoint of the scenario is stored."""
        return bool(self._by_scenario.get(scenario))

    def nearest(self, scenario: str, tick: int) -> Checkpoint | None:
        """The latest checkpoint at or before ``tick`` (None if absent).

        A fault at an uncaptured tick resumes from the nearest earlier
        snapshot and replays the short fault-free gap.
        """
        ticks = self.ticks(scenario)
        index = bisect_right(ticks, tick)
        if index == 0:
            return None
        return self._by_scenario[scenario][ticks[index - 1]]

    def drop_scenario(self, scenario: str) -> None:
        """Evict one scenario's ladder from memory (persisted copies stay).

        The spill half of the pipeline driver's out-of-core ladders: a
        ladder is spooled to disk (:meth:`save_scenario`) the moment its
        golden run lands and dropped here, so driver-resident ladder
        memory stays O(one scenario) instead of O(campaign).  Dropping
        a scenario that was never stored is a no-op.
        """
        self._by_scenario.pop(scenario, None)
        self._sorted_ticks.pop(scenario, None)

    def scenarios(self) -> list[str]:
        """Scenario names with at least one stored checkpoint, sorted."""
        return sorted(name for name, ladder in self._by_scenario.items()
                      if ladder)

    # -- disk persistence ------------------------------------------------------

    @staticmethod
    def _scenario_filename(scenario: str) -> str:
        """Filesystem-safe per-scenario file name (names may be arbitrary)."""
        digest = hashlib.sha256(scenario.encode("utf-8")).hexdigest()[:16]
        return f"ckpt-{digest}.pkl"

    def save_scenario(self, directory: str | Path, scenario: str) -> Path:
        """Persist one scenario's ladder into a saved-store layout.

        The streaming campaign pipeline spools each scenario's ladder to
        disk as its golden run completes, so pool workers (which existed
        before the ladder did) can pull it with :meth:`load_scenario`
        instead of depending on ``fork`` inheritance.  Both the pickle
        and the index are written atomically (temp file + rename), so a
        reader racing a writer sees either the old or the new state — a
        failed read falls back to full replay, which is bit-identical
        anyway.  Returns the directory written.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        ladder = self._by_scenario.get(scenario, {})
        filename = self._scenario_filename(scenario)
        blob = pickle.dumps(ladder, protocol=pickle.HIGHEST_PROTOCOL)
        write_bytes_atomic(directory / filename, blob)
        STAGE_TIMER.count("checkpoint", "spill_bytes", len(blob))
        index = self._read_index(directory)
        if index is None:
            index = {"version": _FORMAT_VERSION, "scenarios": {}}
        index["scenarios"][scenario] = {"file": filename,
                                        "ticks": sorted(ladder)}
        write_bytes_atomic(directory / _INDEX_NAME,
                           json.dumps(index).encode("utf-8"))
        return directory

    def load_scenario(self, directory: str | Path, scenario: str) -> bool:
        """Load one scenario's ladder from a saved store into this one.

        Returns True when the ladder was found and merged; a missing or
        corrupt file returns False and leaves the store unchanged — the
        caller then falls back to re-capturing, the safe direction.
        """
        index = self._read_index(directory)
        entry = None if index is None else index["scenarios"].get(scenario)
        if entry is None:
            return False
        path = Path(directory) / entry["file"]
        try:
            ladder = pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return False
        if not isinstance(ladder, dict):
            return False
        self.add_all(ladder)
        return True

    @classmethod
    def saved_scenarios(cls, directory: str | Path) -> set[str]:
        """Scenario names a persisted store covers (empty if unreadable)."""
        return set(cls.saved_ticks(directory))

    @classmethod
    def saved_ticks(cls, directory: str | Path) -> dict[str, list[int]]:
        """Captured ticks per persisted scenario, read from the index
        alone (empty if unreadable), so a caller can tell whether a
        spilled ladder covers its jobs without loading it."""
        index = cls._read_index(directory)
        if index is None:
            return {}
        return {name: entry["ticks"]
                for name, entry in index["scenarios"].items()}

    @staticmethod
    def _read_index(directory: str | Path) -> dict | None:
        path = Path(directory) / _INDEX_NAME
        try:
            index = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (not isinstance(index, dict)
                or index.get("version") != _FORMAT_VERSION
                or not isinstance(index.get("scenarios"), dict)):
            return None
        return index
