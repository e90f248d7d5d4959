"""Small cores shared across layers (no dependency on any of them)."""

from repro.util.seqlog import InOrderConsumer, SequencedLog

__all__ = ["InOrderConsumer", "SequencedLog"]
