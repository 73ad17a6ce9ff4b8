"""API-surface quality gates: docstrings, import hygiene, and the
packet-handoff boundary (every cross-component handoff goes through the
PacketSink protocol — no reaching into another component's internals)."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.topology",
    "repro.transport",
    "repro.coding",
    "repro.core",
    "repro.lb",
    "repro.workloads",
    "repro.analysis",
    "repro.experiments",
    "repro.wire",
]


def iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name == "data":
                continue
            yield importlib.import_module(f"{pkg_name}.{info.name}")


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_class_and_function_is_documented(self):
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        # Dataclass-config holders document themselves through fields;
        # everything else must carry a docstring.
        hard_misses = [u for u in undocumented if not u.endswith("Config")]
        assert not hard_misses, f"undocumented public API: {hard_misses}"


class TestImportHygiene:
    def test_all_exports_resolve(self):
        for module in iter_modules():
            exported = getattr(module, "__all__", None)
            if not exported:
                continue
            for name in exported:
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestPacketBoundary:
    """The PacketSink protocol is the only cross-component handoff path."""

    def test_every_forwarding_component_is_a_packet_sink(self):
        from repro.sim import Host, Link, PacketSink, Port, Switch
        from repro.sim.engine import Simulator

        sim = Simulator()
        link = Link(sim, 100.0, 1000)
        for cls, instance in [
            (Link, link),
            (Port, Port(sim, link, capacity_bytes=64 * 1024)),
            (Switch, Switch(sim, 0, "sw0")),
            (Host, Host(sim, 1, "h0")),
        ]:
            assert isinstance(instance, PacketSink), cls.__name__

    def test_public_entry_points_are_exported(self):
        import repro.sim as sim_pkg

        for name in ("PacketSink", "WiringError"):
            assert name in sim_pkg.__all__

    def test_no_handoffs_bypass_the_sink_protocol(self):
        """No cross-component packet handoff may poke a peer's internals.

        Outside the sink implementations themselves, source code must not
        call another component's ``.enqueue()`` / ``.transmit()`` directly
        (the sanctioned spelling is ``.receive()``) nor rewire a link by
        assigning ``.dst`` (the sanctioned spelling is ``.connect()``).
        """
        src = pathlib.Path(repro.__file__).resolve().parent
        # The sink implementations and the boundary layer itself define
        # these operations; everyone else must go through receive().
        allowed = {"sim/link.py", "sim/queues.py", "sim/boundary.py"}
        bypasses = []
        patterns = [
            # Link rewiring (self.dst = ... is a component initialising
            # its own address field, e.g. Packet.dst — that's fine).
            re.compile(r"(?<!self)\.dst\s*=[^=]"),
            re.compile(r"\w+\.port\.enqueue\("),   # reaching into a switch
            re.compile(r"\w+\.link\.transmit\("),  # reaching past a port
            re.compile(r"\.dst\.receive\("),       # reaching past a link
        ]
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            if rel in allowed:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if any(p.search(line) for p in patterns):
                    bypasses.append(f"{rel}:{lineno}: {line.strip()}")
        assert not bypasses, (
            "cross-component handoffs bypassing PacketSink:\n"
            + "\n".join(bypasses)
        )


class TestSeededRandomness:
    """Every random decision draws from an injected seeded RNG.

    Chaos scenarios, the wire impairment proxy, workload generators —
    all of them take a ``random.Random`` (or a seed) and draw from it,
    so two runs with the same seed make the same decisions. A draw from
    module-global ``random`` (``random.random()``, ``random.choice()``,
    ...) silently breaks that reproducibility; the only sanctioned
    module-level use is constructing ``random.Random(seed)`` instances.
    """

    def test_no_module_global_random_draws(self):
        src = pathlib.Path(repro.__file__).resolve().parent
        # Match ``random.<fn>(`` where ``random`` is the module (not an
        # attribute like ``rng.random(``) and ``<fn>`` is not the
        # ``Random`` constructor.
        draw = re.compile(r"(?<![\w.])random\.(?!Random\b)\w+\(")
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if draw.search(line):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "module-global random draws (inject a seeded Random instead):\n"
            + "\n".join(offenders)
        )
