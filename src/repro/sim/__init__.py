"""Discrete-event engine, metrics and traces."""

from repro.sim.dataplane import DataPlaneSimulator, DataPlaneStats
from repro.sim.engine import SimulationEngine, replay_smp_pipeline
from repro.sim.metrics import Counter, MetricRegistry
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "SimulationEngine",
    "replay_smp_pipeline",
    "DataPlaneSimulator",
    "DataPlaneStats",
    "Counter",
    "MetricRegistry",
    "Trace",
    "TraceRecord",
]
