"""Stream processing engine (SPE) substrate.

COSMOS treats the SPE as a pluggable component: processors may run
TelegraphCQ, STREAM, Aurora or (in the paper's experiments) GSN
(section 2).  A processor talks to its engine through
:meth:`StreamProcessingEngine.register` (a :class:`ContinuousQuery`) and
:meth:`StreamProcessingEngine.push_to` (a :class:`Datagram`).  This
package provides a from-scratch single-site SPE with the semantics the
query layer relies on:

* time-based sliding windows ``[Range T]`` / ``[Now]`` / ``[Unbounded]``,
  kept as the one kind of operator state, a keyed window
  (:mod:`repro.spe.windows`);
* select / project / one symmetric window join (Lemma 1 semantics) /
  grouped aggregation (:mod:`repro.spe.operators`);
* a continuous-query executor fed tuples in timestamp order
  (:mod:`repro.spe.engine`).
"""

from __future__ import annotations

from repro.spe.engine import QueryResult, StreamProcessingEngine
from repro.spe.windows import KeyedWindow

__all__ = [
    "KeyedWindow",
    "QueryResult",
    "StreamProcessingEngine",
]
