"""Stream processing engine (SPE) substrate.

COSMOS treats the SPE as a pluggable component: processors may run
TelegraphCQ, STREAM, Aurora or (in the paper's experiments) GSN, each
behind a *data wrapper* and a *query wrapper* (section 2).  This
package provides a from-scratch single-site SPE with the semantics the
query layer relies on:

* time-based sliding windows ``[Range T]`` / ``[Now]`` / ``[Unbounded]``,
  kept as the one kind of operator state, a keyed window
  (:mod:`repro.spe.windows`);
* select / project / one symmetric window join (Lemma 1 semantics) /
  grouped aggregation (:mod:`repro.spe.operators`);
* a continuous-query executor fed tuples in timestamp order
  (:mod:`repro.spe.engine`);
* the wrapper interfaces that adapt COSMOS datagrams and CQL text to a
  concrete engine (:mod:`repro.spe.wrappers`).
"""

from __future__ import annotations

from repro.spe.engine import QueryResult, StreamProcessingEngine
from repro.spe.windows import KeyedWindow
from repro.spe.wrappers import (
    DataWrapper,
    IdentityDataWrapper,
    QueryWrapper,
    TextQueryWrapper,
)

__all__ = [
    "DataWrapper",
    "IdentityDataWrapper",
    "KeyedWindow",
    "QueryResult",
    "QueryWrapper",
    "StreamProcessingEngine",
    "TextQueryWrapper",
]
