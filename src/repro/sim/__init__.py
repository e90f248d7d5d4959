"""Discrete-event engine, the data plane and metrics."""

from repro.sim.dataplane import DataPlaneSimulator, DataPlaneStats
from repro.sim.engine import SimulationEngine, replay_smp_pipeline
from repro.sim.metrics import Counter, MetricRegistry

__all__ = [
    "SimulationEngine",
    "replay_smp_pipeline",
    "DataPlaneSimulator",
    "DataPlaneStats",
    "Counter",
    "MetricRegistry",
]
