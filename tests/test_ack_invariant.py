"""The invariant the sender's one-lookup ACK rests on.

``Sender._on_ack`` tells a new ACK from a duplicate or stale one by
``outstanding.pop(seq, None)`` alone. That is right only while no
sequence is ever both acked and outstanding: ``_emit`` never sends an
acked sequence, and ``UnoRCSender._complete_block`` pops a sequence
before it acks it. These worlds drive every path that acks or retires a
sequence out of order — RTO retransmission after link loss, UnoRC
block-complete ACKs after parity recovery, UnoRC NACK retransmission —
and check the invariant after every ACK the sender takes.
"""

import pytest

from repro.coding.block import BlockConfig
from repro.core.unorc import UnoRCConfig
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliLoss
from repro.sim.units import US
from repro.topology.simple import incast_star
from repro.transport.base import Sender, start_flow
from tests.test_transport_base import FixedWindow
from tests.test_unorc import launch_rc_flow


@pytest.fixture
def checked_acks(monkeypatch):
    """Wrap ``Sender._on_ack`` (UnoRCSender inherits it): after every ACK,
    assert no sequence is both acked and outstanding. Returns the list of
    ACK sequence numbers checked."""
    seen = []
    on_ack = Sender._on_ack

    def checked(sender, pkt):
        on_ack(sender, pkt)
        seen.append(pkt.seq)
        both = [seq for seq in sender.outstanding if seq in sender.acked_seqs]
        assert not both, (
            f"flow {sender.flow_id}: after the ACK of seq {pkt.seq}, "
            f"sequences {both} are acked and still outstanding")

    monkeypatch.setattr(Sender, "_on_ack", checked)
    return seen


def _world():
    sim = Simulator()
    topo = incast_star(sim, 1, prop_ps=1 * US)
    net = topo.net
    fwd = net.port_between(topo.senders[0], net.switches[0]).link
    rev = net.port_between(net.switches[0], topo.senders[0]).link
    return sim, topo, fwd, rev


def test_plain_sender_under_link_loss_and_rto(checked_acks):
    """Loss both ways, and an RTO shorter than the RTT: timeouts resend
    copies still in flight, so some sequences are acked twice."""
    sim, topo, fwd, rev = _world()
    fwd.loss_model = BernoulliLoss(0.1, seed=5)
    rev.loss_model = BernoulliLoss(0.1, seed=6)
    done = []
    sender = start_flow(
        sim, topo.net, FixedWindow(16 * 4096), topo.senders[0],
        topo.receivers[0], 256 * 1024, base_rtt_ps=14 * US,
        on_complete=done.append, rto_multiplier=0.5, min_rto_ps=2 * US)
    sim.run(until=10**12)
    assert done and sender.stats.bytes_acked == 256 * 1024
    assert sender.stats.timeouts > 0 and sender.stats.retransmissions > 0
    assert sender.stats.dup_acks > 0
    assert checked_acks


def test_unorc_block_complete_acks_after_parity_recovery(checked_acks):
    """One first copy lost per (4, 2) block: the parity decodes every
    block, and each block-complete ACK retires the lost sequence while it
    is still outstanding."""
    sim, topo, fwd, rev = _world()
    fwd.loss_model = lambda p, now: p.seq % 4 == 1 and p.retx == 0 \
        and p.seq < 64
    rc = UnoRCConfig(block=BlockConfig(4, 2), block_timeout_ps=1000 * US)
    sender, done = launch_rc_flow(sim, topo, 64 * 4096, rc=rc,
                                  cc=FixedWindow(1 << 20))
    sim.run(until=10**12)
    assert done
    assert sender.receiver.blocks_decoded_with_parity == 16
    assert checked_acks.count(-2) == 16  # BLOCK_COMPLETE_SEQ
    assert sender.stats.retransmissions == 0


def test_unorc_nack_retransmits_and_sends_unsent_data_early(
        checked_acks, monkeypatch):
    """A block's first copy of seq 0 is lost and it cannot decode before
    its timer: the receiver NACKs, the sender retransmits. With a
    two-packet window and a 2 us block timer the NACK arrives before the
    block's tail was ever sent, so it queues unsent data for
    retransmission, and the fresh-send pointer later meets sequences
    already acked."""
    queued_unsent = []
    queue_retransmit = Sender.queue_retransmit

    def recording(sender, seq):
        if sender._next_seq <= seq < sender.total_data_pkts:
            queued_unsent.append(seq)
        queue_retransmit(sender, seq)

    monkeypatch.setattr(Sender, "queue_retransmit", recording)
    sim, topo, fwd, rev = _world()
    fwd.loss_model = lambda p, now: p.seq == 0 and p.retx == 0
    rc = UnoRCConfig(block=BlockConfig(4, 2), block_timeout_ps=2 * US)
    sender, done = launch_rc_flow(sim, topo, 16 * 4096, rc=rc,
                                  cc=FixedWindow(2 * 4096))
    sim.run(until=10**12)
    assert done and sender.stats.bytes_acked == 16 * 4096
    assert sender.stats.nacks_received > 0
    assert sender.stats.retransmissions > 0
    assert queued_unsent
    assert checked_acks
