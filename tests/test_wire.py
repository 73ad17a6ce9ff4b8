"""Sim-to-wire datapath tests: the EngineLike seam, WallClock semantics,
impairment-engine determinism, and the loopback soak harness gates
(reliability under impairment, policy aborts under blackhole, and the
sim-vs-wire comparison staying in band)."""

import asyncio
import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.transport.base import AbortPolicy, EngineLike, TimerHandle
from repro.wire.clock import WallClock
from repro.wire.compare import CompareTolerance, compare_sim_wire
from repro.wire.harness import WireFlowSpec, run_wire
from repro.wire.proxy import (
    ImpairmentEngine,
    Impairments,
)


class TestEngineSeam:
    def test_simulator_satisfies_engine_protocol(self):
        sim = Simulator()
        assert isinstance(sim, EngineLike)
        handle = sim.after(10, lambda: None)
        assert isinstance(handle, TimerHandle)

    def test_wall_clock_satisfies_engine_protocol(self):
        async def check():
            clock = WallClock()
            assert isinstance(clock, EngineLike)
            handle = clock.after(10, lambda: None)
            assert isinstance(handle, TimerHandle)
            handle.cancel()
        asyncio.run(check())


class TestWallClock:
    def test_now_advances_monotonically_in_picoseconds(self):
        async def check():
            clock = WallClock()
            t0 = clock.now
            await asyncio.sleep(0.01)
            t1 = clock.now
            assert t1 > t0
            assert t1 - t0 >= 5 * MS  # slept 10 ms of wall time
        asyncio.run(check())

    def test_after_fires_and_accounts_live_timers(self):
        async def check():
            clock = WallClock()
            fired = []
            clock.after(1 * MS, fired.append, 1)
            assert clock.live_timers == 1
            await asyncio.sleep(0.01)
            assert fired == [1]
            assert clock.live_timers == 0
            assert clock.stats()["fired"] == 1
        asyncio.run(check())

    def test_cancel_is_idempotent_and_releases_the_timer(self):
        async def check():
            clock = WallClock()
            handle = clock.after(10 * MS, lambda: None)
            handle.cancel()
            handle.cancel()
            assert clock.live_timers == 0
            assert clock.stats()["cancelled"] == 1
        asyncio.run(check())

    def test_at_clamps_past_deadlines_instead_of_raising(self):
        # The documented wall-clock departure from the simulator: real
        # time advances between reading ``now`` and scheduling, so a
        # past deadline means "as soon as possible", not an error.
        async def check():
            clock = WallClock()
            fired = []
            clock.at(0, fired.append, 1)  # long past by now
            await asyncio.sleep(0.01)
            assert fired == [1]
        asyncio.run(check())

    def test_negative_delay_is_rejected(self):
        async def check():
            clock = WallClock()
            with pytest.raises(ValueError):
                clock.after(-1, lambda: None)
        asyncio.run(check())


class TestImpairments:
    def test_validation_rejects_bad_rates_and_windows(self):
        with pytest.raises(ValueError):
            Impairments(loss_rate=1.5)
        with pytest.raises(ValueError):
            Impairments(delay_ms=-1.0)
        with pytest.raises(ValueError):
            Impairments(blackhole_ms=5.0)  # needs a start

    def test_describe_roundtrips(self):
        imp = Impairments(delay_ms=2.0, loss_rate=0.1, rate_mbps=50.0,
                          blackhole_start_ms=10.0, blackhole_ms=5.0)
        doc = imp.describe()
        assert doc["kind"] == "wire_impairments"
        assert Impairments(
            **{k: v for k, v in doc.items() if k != "kind"}) == imp

    def test_same_seed_same_fates(self):
        imp = Impairments(delay_ms=1.0, jitter_ms=0.5, loss_rate=0.2,
                          dup_rate=0.1, reorder_rate=0.3, rate_mbps=100.0)
        runs = []
        for _ in range(2):
            eng = ImpairmentEngine(imp, random.Random(42))
            runs.append([eng.fates(1500, t * 100 * US)
                         for t in range(200)])
        assert runs[0] == runs[1]
        eng = ImpairmentEngine(imp, random.Random(43))
        assert [eng.fates(1500, t * 100 * US) for t in range(200)] \
            != runs[0]

    def test_conservation_and_blackhole_window(self):
        imp = Impairments(delay_ms=1.0, loss_rate=0.3,
                          blackhole_start_ms=10.0, blackhole_ms=10.0)
        eng = ImpairmentEngine(imp, random.Random(7))
        for t_ms in range(0, 30):
            eng.fates(1500, t_ms * MS)
        stats = eng.stats()
        assert stats["rx"] == 30
        assert stats["dropped_blackhole"] == 10  # the [10, 20) ms window
        assert stats["rx"] == (stats["forwarded"] + stats["dropped_loss"]
                               + stats["dropped_blackhole"])

    def test_rate_cap_serializes_back_to_back_datagrams(self):
        imp = Impairments(delay_ms=0.0, rate_mbps=8.0)  # 1 ms per 1000B
        eng = ImpairmentEngine(imp, random.Random(1))
        first = eng.fates(1000, 0)[0]
        second = eng.fates(1000, 0)[0]  # queues behind the first
        assert second >= first + 1 * MS


class TestLoopbackSoak:
    def test_clean_loopback_delivers_everything(self):
        res = run_wire(
            [WireFlowSpec("dctcp", 64 * 1024),
             WireFlowSpec("uno", 64 * 1024, 1.0)],
            Impairments(delay_ms=1.0, rate_mbps=80.0),
            seed=3, timeout_s=20.0,
        )
        assert res["completed"] == res["n_flows"] == 2
        assert res["violations"] == []
        assert res["timed_out"] is False
        assert res["clock"]["live"] == 0

    def test_impaired_soak_completes_with_zero_violations(self):
        res = run_wire(
            [WireFlowSpec("dctcp", 64 * 1024),
             WireFlowSpec("uno", 64 * 1024, 2.0)],
            Impairments(delay_ms=1.0, jitter_ms=0.2, loss_rate=0.05,
                        dup_rate=0.03, reorder_rate=0.25,
                        reorder_extra_ms=1.0, rate_mbps=80.0),
            seed=5, timeout_s=30.0,
        )
        assert res["completed"] == res["n_flows"] == 2
        assert res["violations"] == []
        # The proxy really did impair (seeded, so stable per seed).
        dropped = sum(res["proxy"][d]["dropped_loss"]
                      for d in ("a_to_b", "b_to_a"))
        assert dropped > 0

    def test_blackhole_aborts_by_policy_with_timers_cancelled(self):
        res = run_wire(
            [WireFlowSpec("uno", 512 * 1024)],
            Impairments(delay_ms=1.0, rate_mbps=80.0,
                        blackhole_start_ms=50.0),
            # Six consecutive RTOs abort ~0.8 s in — *after* the
            # explicit 0.5 s idle timeout, so this cell exercises both
            # terminal paths: receiver idles out, sender aborts. The
            # pinned timeout is safe here (unlike on a live path)
            # because the blackhole guarantees total receiver silence.
            seed=9, abort=AbortPolicy(max_consecutive_rtos=6),
            timeout_s=20.0, idle_timeout_ps=500 * MS,
        )
        assert res["aborted"] == res["n_flows"] == 1
        assert res["abort_reasons"] == {"max_consecutive_rtos": 1}
        assert res["idled_out"] == 1
        assert res["violations"] == []
        assert res["max_backoff"] <= 8
        assert res["clock"]["live"] == 0

    def test_flow_spec_validation(self):
        with pytest.raises(ValueError):
            WireFlowSpec("tcp-reno", 1024)
        with pytest.raises(ValueError):
            WireFlowSpec("dctcp", 0)


class TestSimVsWire:
    def test_comparison_stays_in_band(self):
        res = compare_sim_wire(
            [WireFlowSpec("dctcp", 64 * 1024),
             WireFlowSpec("uno", 64 * 1024, 1.0)],
            Impairments(delay_ms=1.0, loss_rate=0.02, rate_mbps=80.0),
            seed=5, timeout_s=20.0,
        )
        assert res["within_tolerance"], res["mismatches"]
        assert res["sim"]["completed"] == res["wire"]["completed"] == 2

    def test_non_sim_expressible_impairments_are_rejected(self):
        with pytest.raises(ValueError, match="soak"):
            compare_sim_wire([WireFlowSpec("dctcp", 1024)],
                             Impairments(dup_rate=0.1))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            CompareTolerance(fct_ratio_lo=2.0)
        with pytest.raises(ValueError):
            CompareTolerance(retx_slack=-1)


class TestWireCampaign:
    def test_campaign_points_cover_cells_and_reject_unknowns(self):
        from repro.experiments import wire as wire_exp

        pts = wire_exp.campaign_points("full")
        names = [p.name for p in pts]
        assert len(names) == len(set(names)) == 8
        assert any("blackhole-uno" in n for n in names)
        assert any("compare-dctcp" in n for n in names)
        with pytest.raises(ValueError):
            wire_exp.campaign_points("bogus")

    def test_cell_presets_cover_every_cell(self):
        from repro.experiments import wire as wire_exp

        for cell in (*wire_exp.SOAK_CELLS, "compare"):
            imp = wire_exp.cell_impairments(cell)
            assert imp.describe()["kind"] == "wire_impairments"
        with pytest.raises(ValueError):
            wire_exp.cell_impairments("nope")
