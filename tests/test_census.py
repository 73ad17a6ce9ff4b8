"""The reachability census and the benchmark contract.

``tools/census.json`` says, for every function in ``src/repro``, whether
a documented entry point reaches it (``prod``) or which rent keeps it.
The check is static — it compiles the tree and reads the file — so a
function that lands without an entry, or an entry whose function went,
fails here; ``python tools/census.py run`` refreshes the file.

The benchmark's tracer patches simulator names from outside ``src/``;
deleting or renaming one of them breaks every traced benchmark child,
so the round trip below runs in tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


@pytest.fixture(scope="module")
def universe():
    return census.functions()


@pytest.fixture(scope="module")
def recorded():
    return census.load_census()


def test_every_function_is_prod_or_names_a_rent(universe, recorded):
    problems = census.check(universe, recorded)
    assert not problems, "\n".join(problems)


def test_rents_are_the_scripts(recorded):
    assert recorded["rents"] == {
        rent: why for rent, (why, _) in census.RENTS.items()}


def test_check_reports_each_kind_of_disagreement(universe, recorded):
    functions = dict(recorded["functions"])
    missing = next(k for k, v in functions.items() if v == "prod")
    del functions[missing]
    functions["sim/engine.py::Simulator.gone"] = "prod"
    rentless = next(k for k, v in functions.items() if v == "prod")
    functions[rentless] = "unreached"
    problems = census.check(universe, dict(recorded, functions=functions))
    assert len(problems) == 3
    assert problems[0].startswith(f"{missing}: no census entry")
    assert problems[1].startswith("sim/engine.py::Simulator.gone: census "
                                  "entry for a function that no longer")
    assert problems[2].startswith(f"{rentless}: no entry point reaches it")


def test_span_lines_count_nested_functions_once():
    universe = {"m.py::f": [(10, 20)], "m.py::f.<locals>.g": [(12, 15)],
                "n.py::h": [(1, 2), (5, 5)]}
    assert census.span_lines(universe, universe) == 11 + 3


def test_tracer_round_trip_restores_every_patched_name():
    """What a ``--trace 1`` benchmark child does to the simulator, and
    undoes: a KeyError or ImportError here is the one that child would
    hit if a deletion removed a name the tracer patches."""
    from benchmarks.unobench.tracer import Tracer

    import repro.sim.link as link_mod
    import repro.sim.queues as queues_mod
    from repro.sim.engine import EventHandle, Simulator
    from repro.sim.queues import Port

    names = [(Simulator, "at"), (Simulator, "after"), (Simulator, "at_seq"),
             (Simulator, "rearm"), (EventHandle, "cancel"),
             (Port, "enqueue"), (Port, "receive")]
    before = {(o, n): o.__dict__[n] for o, n in names}
    heappush = (link_mod.heappush, queues_mod.heappush)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(o.__dict__[n] is not before[o, n] for o, n in names)
        assert link_mod.heappush is not heappush[0]
    finally:
        tracer.uninstall()
    assert all(o.__dict__[n] is before[o, n] for o, n in names)
    assert (link_mod.heappush, queues_mod.heappush) == heappush
