"""COS80x message-flow extraction: coverage, canaries, guard logic."""

from __future__ import annotations

import pytest

from repro.analysis.flowgraph import check_flowgraph, extract_flowgraph
from repro.analysis.selfcheck import check_modules, default_package_dir
from repro.analysis.source import load_package, module_from_text


@pytest.fixture(scope="module")
def modules():
    return load_package(default_package_dir())


def mutate(modules, rel_suffix, old, new, count=1):
    """The module list with one module's text rewritten."""
    out = []
    hit = False
    for module in modules:
        if module.rel.endswith(rel_suffix):
            assert module.text.count(old) == count, rel_suffix
            out.append(module_from_text(module.text.replace(old, new), module.rel))
            hit = True
        else:
            out.append(module)
    assert hit, f"no module matches {rel_suffix}"
    return out


class TestExtraction:
    def test_event_kinds_have_producers_and_consumers(self, modules):
        graph = extract_flowgraph(modules)
        for name in ("InjectEvent", "DropEvent", "FaultEvent", "PunctuationEvent"):
            kind = graph.kind(f"event:{name}")
            assert kind.producers, name
            assert kind.consumers, name

    def test_reliability_protocol_surface_is_covered(self, modules):
        """Every message/control kind the reliability layer produces
        appears in the graph (the ISSUE acceptance criterion)."""
        graph = extract_flowgraph(modules)
        kinds = {kind.kind for kind in graph.message_kinds}
        for expected in (
            "proto:SequencedUplink.record",
            "proto:SequencedUplink.retransmit",
            "proto:UplinkReceiver.offer",
            "proto:UplinkReceiver.announce",
            "proto:UplinkReceiver.abandon",
            "proto:FailureDetector.register",
            "proto:FailureDetector.sweep",
            "proto:FailureDetector.check",
            "proto:quarantine_partitioned",
            "proto:heal_partition",
            "proto:ContentBasedNetwork.publish",
        ):
            assert expected in kinds

    def test_timer_kinds_cover_nack_and_sweep_paths(self, modules):
        graph = extract_flowgraph(modules)
        kinds = {kind.kind for kind in graph.message_kinds}
        for expected in (
            "timer:_nack",
            "timer:_retransmit_arrival",
            "timer:_sweep",
            "timer:_repair",
            "timer:_give_up",
        ):
            assert expected in kinds

    def test_to_dict_shape(self, modules):
        payload = extract_flowgraph(modules).to_dict()
        assert set(payload) == {"messages"}
        for entry in payload["messages"]:
            assert set(entry) == {"kind", "producers", "consumers"}


class TestPristine:
    def test_package_is_clean_through_the_driver(self, modules):
        assert check_modules(modules).is_clean

    def test_pragmas_on_reliability_are_load_bearing(self, modules):
        """Without pragmas the one intentionally external entry point
        (heal_partition) surfaces as COS802.  ``stamp`` used to be
        pragma'd too, until the migration channel became an in-package
        caller — its pragma is gone with the need for it."""
        report = check_flowgraph(modules)
        assert report.codes() == ["COS802"]
        assert "heal_partition" in report.render()


class TestCanaries:
    def test_deleting_a_handler_registration_fires_cos801(self, modules):
        """The PunctuationEvent dispatch branch in the virtual network
        is its only consumer; removing it orphans the kind."""
        mutated = mutate(
            modules,
            "sim/network.py",
            "        elif isinstance(event, PunctuationEvent):\n"
            "            self._apply_punctuation(event, sim)\n",
            "",
        )
        report = check_modules(mutated)
        assert report.codes() == ["COS801"]
        assert "PunctuationEvent" in report.render()

    def test_stripping_the_recovery_guard_fires_cos803(self, modules):
        """Unguarded publishes without seq= in the network's inject path
        bypass the sequencing layer when recovery is on."""
        mutated = mutate(
            modules,
            "sim/network.py",
            "        if self.recovery and event.seq is not None:\n"
            "            self._apply_inject_reliable(event, sim)\n"
            "            return\n",
            "",
        )
        report = check_modules(mutated)
        assert report.codes() == ["COS803", "COS803"]
