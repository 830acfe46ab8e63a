"""A small discrete-event simulation kernel.

This is the substrate the virtual cluster runs on.  It is intentionally
modelled on the SimPy API (``Environment``, processes as generators yielding
events, ``Timeout``, ``Resource``) so the cluster code reads like
ordinary concurrent code, but it is fully self-contained and deterministic.
"""

from repro.sim.core import (
    Environment,
    Event,
    Timeout,
    Process,
    Interrupt,
    AllOf,
    AnyOf,
)
from repro.sim.resources import Resource, BandwidthResource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "BandwidthResource",
]
