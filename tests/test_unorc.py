"""UnoRC: erasure-coded blocks, parity scheduling, NACKs, block ACKs."""

import pytest

from repro.coding.block import BlockConfig
from repro.core.unorc import UnoRCConfig, UnoRCReceiver, UnoRCSender
from repro.sim.engine import Simulator
from repro.sim.failures import BernoulliLoss
from repro.sim.units import MIB, US
from repro.topology.simple import incast_star
from repro.transport.base import start_flow
from repro.transport.dctcp import DCTCP


def launch_rc_flow(sim, topo, size, rc=None, loss_p=0.0, drop_parity_only=False,
                   seed=3, cc=None):
    rc = rc or UnoRCConfig(block=BlockConfig(4, 2))
    if loss_p:
        link = topo.net.port_between(topo.senders[0],
                                     topo.net.switches[0]).link
        link.loss_model = BernoulliLoss(loss_p, seed=seed)
    done = []
    sender = start_flow(
        sim,
        topo.net,
        cc or DCTCP(),
        topo.senders[0],
        topo.receivers[0],
        size,
        sender_cls=UnoRCSender,
        receiver_cls=UnoRCReceiver,
        receiver_kwargs={"rc": rc},
        rc=rc,
        base_rtt_ps=14 * US,
        on_complete=done.append,
    )
    return sender, done


class TestSequenceLayout:
    def _sender(self, size, x=4, y=2):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        rc = UnoRCConfig(block=BlockConfig(x, y))
        sender, _ = launch_rc_flow(sim, topo, size, rc=rc)
        return sender

    def test_block_counts(self):
        s = self._sender(10 * 4096)  # 10 data pkts, x=4 -> 3 blocks
        assert s.n_blocks == 3
        assert [s.block_data_n(b) for b in range(3)] == [4, 4, 2]

    def test_parity_seq_layout(self):
        s = self._sender(10 * 4096)
        assert s.parity_base(0) == 10
        assert s.parity_base(1) == 12
        assert s.block_of(0) == 0
        assert s.block_of(5) == 1
        assert s.block_of(10) == 0  # first parity of block 0
        assert s.block_of(13) == 1


class TestNoLoss:
    def test_flow_completes_and_sends_parity(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender, done = launch_rc_flow(sim, topo, 8 * 4096)
        sim.run(until=10**12)
        assert done
        # 8 data packets -> 2 blocks of 4 -> 4 parity packets.
        assert sender.stats.data_pkts_sent == 8
        assert sender.stats.parity_pkts_sent == 4
        assert sender.stats.nacks_received == 0

    def test_ec_overhead_bounded_by_scheme(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        rc = UnoRCConfig(block=BlockConfig(8, 2))
        sender, done = launch_rc_flow(sim, topo, 64 * 4096, rc=rc)
        sim.run(until=10**12)
        assert done
        # Up to 8 blocks x 2 parity; parity of blocks that were fully
        # ACKed before their parity left the queue is skipped (it can no
        # longer help), so the count may be lower near the flow's tail.
        assert 2 <= sender.stats.parity_pkts_sent <= 16
        overhead = sender.stats.parity_pkts_sent / sender.stats.data_pkts_sent
        assert overhead <= 0.25 + 1e-9

    def test_ec_overhead_exact_when_window_unconstrained(self):
        """With the whole flow inside one window, parity goes out before
        any ACK returns: the full 25% overhead is paid."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        rc = UnoRCConfig(block=BlockConfig(8, 2))
        sender, done = launch_rc_flow(sim, topo, 16 * 4096, rc=rc)
        sim.run(until=10**12)
        assert done
        assert sender.stats.parity_pkts_sent == 4  # 2 blocks x 2

    def test_single_short_block(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender, done = launch_rc_flow(sim, topo, 3 * 4096)  # < one block
        sim.run(until=10**12)
        assert done
        assert sender.n_blocks == 1
        assert sender.stats.parity_pkts_sent == 2


class TestParityRecovery:
    def test_data_loss_recovered_without_sender_retx(self):
        """Lose exactly one data packet: the parity must cover it and the
        receiver's block-complete ACK must finish the flow with no
        retransmission of that packet."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        link = topo.net.port_between(topo.senders[0],
                                     topo.net.switches[0]).link
        dropped = []

        def drop_seq_1(pkt, now):
            if pkt.seq == 1 and not dropped:
                dropped.append(pkt.seq)
                return True
            return False

        link.loss_model = drop_seq_1
        sender, done = launch_rc_flow(sim, topo, 4 * 4096)
        sim.run(until=10**12)
        assert done
        assert dropped == [1]
        assert sender.stats.retransmissions == 0
        recv = sender.receiver
        assert recv.blocks_decoded_with_parity == 1

    def test_losses_beyond_parity_trigger_nack_and_retx(self):
        """Drop 3 of a (4,2) block: unrecoverable, receiver NACKs, sender
        retransmits the missing data packets."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        link = topo.net.port_between(topo.senders[0],
                                     topo.net.switches[0]).link
        to_drop = {0, 1, 2}

        def drop_first_three(pkt, now):
            if pkt.seq in to_drop and pkt.retx == 0:
                return True
            return False

        link.loss_model = drop_first_three
        sender, done = launch_rc_flow(sim, topo, 4 * 4096)
        sim.run(until=10**12)
        assert done
        assert sender.stats.nacks_received >= 1
        assert sender.stats.retransmissions >= 1

    def test_completes_under_random_loss(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender, done = launch_rc_flow(sim, topo, 1 * MIB, loss_p=0.05)
        sim.run(until=10**12)
        assert done
        assert sender.inflight_bytes == 0

    def test_completes_under_heavy_loss(self):
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        sender, done = launch_rc_flow(sim, topo, 256 * 1024, loss_p=0.25)
        sim.run(until=10**12)
        assert done


class TestBlockCompleteAck:
    def test_block_ack_retires_unacked_sequences(self):
        """After a block-complete ACK, no sequence of that block may remain
        outstanding or be retransmitted later."""
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        link = topo.net.port_between(topo.senders[0],
                                     topo.net.switches[0]).link
        link.loss_model = lambda p, now: p.seq == 2 and p.retx == 0
        sender, done = launch_rc_flow(sim, topo, 4 * 4096)
        sim.run(until=10**12)
        assert done
        assert 2 in sender.acked_seqs
        assert not sender.outstanding


class TestReceiverTimer:
    def test_receiver_gives_up_nacking_eventually(self):
        rc = UnoRCConfig(block=BlockConfig(4, 2), max_nacks_per_block=2,
                         block_timeout_ps=20 * US)
        sim = Simulator()
        topo = incast_star(sim, 1, prop_ps=1 * US)
        # Kill the reverse path so NACKs/ACKs never arrive: receiver NACKs
        # max_nacks times then stops.
        sender, done = launch_rc_flow(sim, topo, 4 * 4096, rc=rc)
        rev = topo.net.port_between(topo.net.switches[0], topo.senders[0]).link
        rev.fail()
        fwd_drop = topo.net.port_between(topo.senders[0],
                                         topo.net.switches[0]).link
        fwd_drop.loss_model = lambda p, now: p.seq >= 2  # block never decodable
        sim.run(until=5_000 * US)
        recv = sender.receiver
        assert recv.nacks_sent == 2


class TestConfigValidation:
    def test_rc_config(self):
        with pytest.raises(ValueError):
            UnoRCConfig(nack_backoff=0.5)
        with pytest.raises(ValueError):
            UnoRCConfig(max_nacks_per_block=0)
