"""COS905: chaos-corpus transition coverage of the protocol model.

:mod:`repro.analysis.model` proves what the composed machines *can*
do; this module measures what the chaos sweeps actually *did*.  Every
``repro chaos --json`` artifact records, per seed, the rows the run's
lifecycle executors took (``transitions``, keyed ``"label src->tgt"``;
:class:`repro.system.lifecycle.Lifecycle` counts them as it steps, so
they are exact).  Aggregated over a corpus and mapped onto the product
automaton's reachable machine transitions, the difference is the
interesting set: protocol paths the model proves reachable that no
chaos seed has ever taken.

Each such transition is a **COS905** warning — baseline-ledger-able in
``tools/modelcov-baseline.txt``, so known-cold paths (abandonment
needs a NACK-budget exhaustion the sweeps never reach; migration
aborts need a mid-drain target loss) carry reviewed reasons instead of
silently shrinking the gate.  The denominator is every transition the
product automaton drives; the ones it never drives (``unmodeled``) are
reported but not demanded from the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.model import Exploration, ProductModel
from repro.analysis.source import SourceError


def transition_key(label: str, source: str, target: str) -> str:
    """The ``"label source->target"`` key of a transition: how the
    executors count their rows and how COS905 names them."""
    return f"{label} {source}->{target}"


@dataclass
class MachineCoverage:
    """Corpus coverage of one machine's model-reachable transitions."""

    machine: str
    origin: Tuple[str, int]
    #: Denominator: the model-reachable transition keys.
    total: List[str]
    #: key -> corpus count, restricted to ``total``.
    exercised: Dict[str, int]
    #: Machine transitions the product automaton never drives.
    unmodeled: List[str]

    @property
    def cold(self) -> List[str]:
        return [key for key in self.total if key not in self.exercised]

    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            # The module only: a line number would pin the source layout
            # into ``BENCH_modelcov.json`` (COS905 diagnostics keep theirs).
            "origin": {"module": self.origin[0]},
            "total": list(self.total),
            "exercised": dict(sorted(self.exercised.items())),
            "cold": list(self.cold),
            "unmodeled": list(self.unmodeled),
        }


@dataclass
class CorpusStats:
    """The corpus's aggregated row counts."""

    artifacts: int
    seeds: int
    counts: Dict[str, Dict[str, int]]


def load_corpus(paths: Sequence[Path]) -> CorpusStats:
    """Aggregate the per-seed ``transitions`` of chaos artifacts.

    Raises :class:`~repro.analysis.source.SourceError` naming the file
    (and the seed) for an artifact that is not readable JSON, holds no
    ``seeds`` list, or holds a seed without ``transitions``: a corpus
    that silently shrank would read as coverage it does not have.
    """
    counts: Dict[str, Dict[str, int]] = {}
    seeds = 0
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise SourceError(
                f"{path}: not a readable chaos artifact ({exc})"
            ) from exc
        records = payload.get("seeds") if isinstance(payload, dict) else None
        if not isinstance(records, list):
            raise SourceError(f"{path}: no 'seeds' list")
        for record in records:
            if not isinstance(record, dict):
                raise SourceError(f"{path}: seed record {record!r} is not an object")
            transitions = record.get("transitions")
            if not isinstance(transitions, dict):
                raise SourceError(
                    f"{path}: seed {record.get('seed')} has no 'transitions'"
                )
            seeds += 1
            for machine, bucket in transitions.items():
                target = counts.setdefault(machine, {})
                for key, count in bucket.items():
                    target[key] = target.get(key, 0) + int(count)
    return CorpusStats(artifacts=len(paths), seeds=seeds, counts=counts)


def coverage(
    model: ProductModel,
    exploration: Exploration,
    corpus: CorpusStats,
) -> List[MachineCoverage]:
    """Per-machine coverage of the model-reachable transitions."""
    reachable = model.reachable_machine_transitions(exploration)
    results: List[MachineCoverage] = []
    seen_machines: Set[str] = set()
    for component in model.components:
        machine = component.machine
        if machine.name in seen_machines:
            continue
        seen_machines.add(machine.name)
        all_keys = {
            (t.label, t.source, t.target) for t in machine.transitions
        }
        driven = reachable.get(machine.name, set())
        total: List[str] = []
        unmodeled: List[str] = []
        for label, source, target in sorted(all_keys):
            key = transition_key(label, source, target)
            (total if (label, source, target) in driven else unmodeled).append(key)
        bucket = corpus.counts.get(machine.name, {})
        exercised = {
            key: bucket[key] for key in total if bucket.get(key, 0) > 0
        }
        results.append(
            MachineCoverage(
                machine=machine.name,
                origin=machine.origin,
                total=total,
                exercised=exercised,
                unmodeled=unmodeled,
            )
        )
    return results


def check_coverage(
    results: Sequence[MachineCoverage], corpus: CorpusStats
) -> Report:
    """COS905 for every cold transition, anchored on the machine's
    origin module so the baseline ledger can absorb reviewed ones."""
    report = Report()
    for result in results:
        rel, line = result.origin
        for key in result.cold:
            report.add(
                "COS905",
                f"machine {result.machine}: transition {key!r} is "
                "statically reachable in the product model but never "
                f"exercised by the chaos corpus ({corpus.seeds} "
                "seed(s)) — add a schedule that drives it "
                "or baseline it with a reason",
                rel,
                line,
            )
    return report


def summarize(
    results: Sequence[MachineCoverage],
    corpus: CorpusStats,
    forgiven: int = 0,
) -> dict:
    """The ``coverage`` payload for ``repro model --json`` /
    ``BENCH_modelcov.json``.  ``forgiven`` is how many cold
    transitions the baseline absorbed; the gated ratio treats those as
    reviewed (removed from the denominator)."""
    total = sum(len(r.total) for r in results)
    exercised = sum(len(r.exercised) for r in results)
    cold = total - exercised
    gated_denominator = max(total - forgiven, 1)
    return {
        "artifacts": corpus.artifacts,
        "seeds": corpus.seeds,
        "transitions_total": total,
        "transitions_exercised": exercised,
        "transitions_cold": cold,
        "transitions_baselined": forgiven,
        "coverage_raw": exercised / total if total else 1.0,
        "coverage_gated": exercised / gated_denominator,
        "per_machine": [r.to_dict() for r in results],
    }


def default_coverage_baseline() -> Path:
    """``tools/modelcov-baseline.txt`` next to the package's repo root
    (same discovery contract as the self-check baseline)."""
    import repro

    package = Path(repro.__file__).resolve().parent
    return package.parent.parent / "tools" / "modelcov-baseline.txt"
