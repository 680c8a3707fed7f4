"""The COSMOS query layer — the paper's primary contribution (section 4).

The query layer of a processor:

* decides containment between continuous queries
  (:mod:`repro.core.containment` — Lemma 1, Theorems 1 and 2);
* rewrites groups of overlapping queries into a single *representative
  query* (:mod:`repro.core.merging`);
* composes the data-interest profiles that retrieve source data and
  split the representative result stream back into per-user results
  (:mod:`repro.core.profiles`);
* estimates result-stream rates to price the rewriting benefit
  (:mod:`repro.core.cost`);
* maintains query groups with an incremental greedy optimizer
  (:mod:`repro.core.grouping`);
* ties it all together per processor (:mod:`repro.core.manager`).
"""

from __future__ import annotations

from repro.core.containment import contains, unbounded_contains
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer, QueryGroup
from repro.core.manager import QueryManager
from repro.core.merging import MergeError, mergeable, merge_queries, representative
from repro.core.profiles import (
    result_profile,
    source_profile,
)

__all__ = [
    "CostModel",
    "GroupingOptimizer",
    "MergeError",
    "QueryGroup",
    "QueryManager",
    "contains",
    "mergeable",
    "merge_queries",
    "representative",
    "result_profile",
    "source_profile",
    "unbounded_contains",
]
