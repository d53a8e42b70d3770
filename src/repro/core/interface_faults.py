"""Interface fault models: timing/message faults at module boundaries.

Fault model (d), beyond the paper: the value-corruption models attack
*what* a module says; these attack *whether and when it says it* —
dropped, frozen, delayed, and reordered messages, plus hung modules,
injected at the five typed boundaries of the ADS pipeline (see
:mod:`repro.ads.channels` for delivery semantics).

Interface faults reuse :class:`~repro.core.simulate.FaultSpec` so they
flow through every campaign style, serial and pooled runs, sharding,
leases, the completion journal, and the record streams without new
plumbing: the ``kind``/``channel`` fields mark the fault family, and
``variable`` is the synthetic label ``"<kind>@<channel>"`` (which keeps
journal keys, supervised-executor keys, and per-variable hazard tables
distinguishing them for free).  ``value`` carries the integer fault
parameter — queue depth for ``delay``, reorder window for ``jitter``,
unused otherwise.
"""

from __future__ import annotations

import numpy as np

from ..ads.channels import (CHANNELS, CRITICAL_CHANNELS,
                            DEFAULT_INTERFACE_PARAMS, INTERFACE_KINDS,
                            DegradationConfig)
from .simulate import FaultSpec

__all__ = [
    "CHANNELS",
    "CRITICAL_CHANNELS",
    "DEFAULT_INTERFACE_PARAMS",
    "INTERFACE_KINDS",
    "DegradationConfig",
    "interface_fault",
    "interface_fault_grid",
    "random_interface_fault",
    "validate_interface_channel",
    "validate_interface_kind",
]


def validate_interface_kind(kind: str) -> str:
    if kind not in INTERFACE_KINDS:
        raise ValueError(f"unknown interface fault kind {kind!r}; "
                         f"expected one of {list(INTERFACE_KINDS)}")
    return kind


def validate_interface_channel(channel: str) -> str:
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; "
                         f"expected one of {list(CHANNELS)}")
    return channel


def interface_fault(kind: str, channel: str, start_tick: int,
                    duration_ticks: int = 2,
                    param: int | None = None) -> FaultSpec:
    """One interface fault as a campaign-ready :class:`FaultSpec`."""
    validate_interface_kind(kind)
    validate_interface_channel(channel)
    if param is None:
        param = DEFAULT_INTERFACE_PARAMS[kind]
    return FaultSpec(variable=f"{kind}@{channel}", value=float(param),
                     start_tick=int(start_tick),
                     duration_ticks=int(duration_ticks),
                     kind=kind, channel=channel)


def interface_fault_grid(injection_ticks: list[int],
                         kinds: tuple | None = None,
                         channels: tuple | None = None,
                         duration_ticks: int = 2) -> list[FaultSpec]:
    """Exhaustive companion to ``minmax_fault_grid``: every kind x
    channel x tick, with each kind's default parameter."""
    grid = []
    for tick in injection_ticks:
        for kind in kinds or INTERFACE_KINDS:
            for channel in channels or CHANNELS:
                grid.append(interface_fault(kind, channel, tick,
                                            duration_ticks=duration_ticks))
    return grid


def random_interface_fault(rng: np.random.Generator,
                           injection_ticks: list[int],
                           kinds: tuple | None = None,
                           channels: tuple | None = None,
                           duration_ticks: int = 2) -> FaultSpec:
    """Randomized interface fault: uniform kind, channel, and tick
    (mirrors ``random_fault``'s draw order)."""
    kinds = tuple(kinds or INTERFACE_KINDS)
    channels = tuple(channels or CHANNELS)
    kind = kinds[int(rng.integers(len(kinds)))]
    channel = channels[int(rng.integers(len(channels)))]
    tick = int(injection_ticks[int(rng.integers(len(injection_ticks)))])
    return interface_fault(kind, channel, tick,
                           duration_ticks=duration_ticks)
