"""Superscalar machine models and resource bookkeeping."""

from repro.machine import presets
from repro.machine.model import (
    MachineDescription,
    machine_to_wire,
)
from repro.machine.resources import (
    ReservationTable,
    contention_pairs,
    contention_rows,
)

__all__ = [
    "MachineDescription",
    "machine_to_wire",
    "ReservationTable",
    "contention_pairs",
    "contention_rows",
    "presets",
]
