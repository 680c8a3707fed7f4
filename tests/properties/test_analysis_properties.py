"""Property-based checks of the solver as the static analyzer calls it.

The analyzer passes declared schema domains as ``seed``; under them the
solver must stay *sound*: an "unsatisfiable" verdict means no binding
inside the domains exists, an implication verdict means no
counterexample binding inside them exists.
"""

from hypothesis import given

from repro.cql.predicates import ConstraintSystem, Interval, implies

from tests.properties.strategies import TERMS, bindings, conjunctions

#: Every binding the shared strategy draws lies inside these domains.
SEED = {term: Interval(-20, 20) for term in TERMS}


class TestSolverSoundness:
    @given(conjunctions(), bindings())
    def test_unsat_means_no_binding_matches(self, conj, binding):
        if not ConstraintSystem(conj, SEED).satisfiable:
            assert not conj.evaluate(binding)

    @given(conjunctions(), conjunctions(), bindings())
    def test_implication_has_no_counterexample(self, premise, conclusion, binding):
        if implies(premise, conclusion, SEED) and premise.evaluate(binding):
            assert conclusion.evaluate(binding)
