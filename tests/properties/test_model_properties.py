"""Model soundness: the executors' counts stay inside the static machines.

The COS905 coverage gate counts the rows chaos runs took against the
product model.  That accounting is only meaningful if every counted row
is an edge of the machine ``repro flow`` reads from the source — the
runtime and the analyzer must read the same tables.  Property: for any
seeded schedule, in any mode (lossy / recovery / recovery+migrate), the
run's executors accept every step, every transition key they count
names an actual edge of its machine, and every counted machine is one
the product composes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lifecycle import extract_lifecycle
from repro.analysis.model import build_product
from repro.analysis.modelcov import transition_key
from repro.analysis.selfcheck import default_package_dir
from repro.analysis.source import load_package
from repro.sim import ChaosConfig, run_chaos

_MODULES = load_package(default_package_dir())
_MACHINES = extract_lifecycle(_MODULES)
_MODEL = build_product(_MACHINES, _MODULES)
_EDGE_KEYS = {
    machine.name: {
        transition_key(t.label, t.source, t.target)
        for t in machine.transitions
    }
    for machine in _MACHINES
}
_COMPOSED = {component.machine.name for component in _MODEL.components}


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(["lossy", "recovery", "migrate"]),
)
@settings(max_examples=20, deadline=None)
def test_counted_transitions_exist_in_the_static_model(seed, mode):
    recovery = mode != "lossy"
    config = ChaosConfig(
        seed=seed,
        n_faults=2,
        recovery=recovery,
        migrate=mode == "migrate",
    )
    report = run_chaos(config)
    assert report.ok, report.violations
    transitions = report.transitions
    if recovery:
        # Recovery runs always register and heartbeat every node: the
        # property must not pass vacuously on an empty collection.
        assert transitions["failure-detector"], f"seed {seed} ({mode})"
    for machine_name, bucket in transitions.items():
        assert machine_name in _COMPOSED, (
            f"{machine_name} was counted, but the product does not "
            "compose it"
        )
        phantom = set(bucket) - _EDGE_KEYS[machine_name]
        assert not phantom, (
            f"seed {seed} ({mode}): counted transitions absent "
            f"from the {machine_name} machine: {sorted(phantom)}"
        )
        assert all(count >= 1 for count in bucket.values())
