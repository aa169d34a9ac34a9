"""The clean workload corpus the strategy-sweep benchmark replays."""

from __future__ import annotations

from repro.workloads.corpus import CorpusProgram, CorpusSpec, generate_corpus

#: Corpus kinds whose behaviour is preserved across all three
#: strategies.  STORE-based kinds (hire, guarded-store) are excluded:
#: under the restructured schema the new EMP's DEPT attachment goes
#: through set-occurrence selection, which is currency-dependent -- the
#: paper's connection pathology, a conversion-analysis subject (E11),
#: not an execution-cost one.
BENCH_KINDS = frozenset({"report", "lookup", "raise", "fire", "audit-file"})


def corpus_programs(seed: int = 1979,
                    size: int = 12) -> list[CorpusProgram]:
    """The clean workload corpus the strategies replay (pathological
    shapes excluded: they need interactive inputs and their point is
    conversion *analysis*, not execution cost)."""
    pool = generate_corpus(CorpusSpec(seed=seed, size=size * 3,
                                      pathology_rate=0.0))
    return [item for item in pool if item.kind in BENCH_KINDS][:size]
