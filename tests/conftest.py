"""Shared fixtures.

``per_packet_ports`` is the one seam that forces the per-packet
serializer — the path PFC, INT, lossy and failed ports already take in
production — on ports whose state would otherwise batch-advance their
drain. Differential tests run a scenario once as-is and once inside
``with per_packet_ports():`` and compare everything observable.
"""

import contextlib

import pytest

from repro.sim.queues import Port


@pytest.fixture
def per_packet_ports(monkeypatch):
    """A context manager: no port batches while it is open. Eligibility
    is left uncached, so each enqueue inside it asks again."""

    @contextlib.contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(Port, "_refresh_batch", lambda port: False)
            yield

    return forced
