"""Model soundness: dynamic walks stay inside the static machines.

The COS905 coverage gate counts chaos-walk transitions against the
product model.  That accounting is only meaningful if the conformance
walker never fabricates a transition the extracted machines do not
contain — otherwise "coverage" could include steps the model cannot
even represent.  Property: for any seeded schedule, in any mode
(lossy / recovery / recovery+migrate), every transition key the walker
collects names an actual edge of its machine, and every walked machine
is one the product composes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import conformance_violations, transition_key
from repro.analysis.lifecycle import extract_lifecycle
from repro.analysis.model import build_product
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
def test_walked_transitions_exist_in_the_static_model(seed, mode):
    recovery = mode != "lossy"
    config = ChaosConfig(
        seed=seed,
        n_faults=2,
        recovery=recovery,
        migrate=mode == "migrate",
    )
    report = run_chaos(config)
    transitions: dict = {}
    violations = conformance_violations(
        report.trace.render().splitlines(),
        _MACHINES,
        report.reliability,
        recovery,
        load=report.health,
        transitions=transitions,
    )
    assert violations == [], f"seed {seed} ({mode}): {violations}"
    assert report.ok
    if recovery:
        # Recovery traces always register/deregister supervision: the
        # property must not pass vacuously on an empty collection.
        assert transitions, f"seed {seed} ({mode}): walker collected nothing"
    for machine_name, bucket in transitions.items():
        assert machine_name in _COMPOSED, (
            f"walker visited {machine_name}, which the product does "
            "not compose"
        )
        phantom = set(bucket) - _EDGE_KEYS[machine_name]
        assert not phantom, (
            f"seed {seed} ({mode}): walker counted transitions absent "
            f"from the {machine_name} machine: {sorted(phantom)}"
        )
        assert all(count >= 1 for count in bucket.values())
