"""The benchmark corpus: generation, index build, checkpoint and query streams.

The corpus is fixed (generator seed ``CORPUS_SEED``): the first
``INDEXED_DOCUMENTS`` documents of a :class:`RequirementsGenerator` run are
indexed (~1.3k distinct triples), the documents after them are *held out*
and supply the novel triples — same actors, same vocabularies, never stored
in the index: inserts are held-out statements, queries are their
(function, parameter) pairs said of any actor (:func:`key_groups`).  The
``--seed`` argument only picks and orders the queries and inserts, so
every seed measures the same index under a different request stream.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core import SemTreeConfig, SemTreeIndex
from repro.ingest import IngestingIndex
from repro.rdf.triple import Triple
from repro.requirements import (GeneratorConfig, RequirementsGenerator,
                                build_requirement_distance,
                                build_requirement_vocabularies)

CORPUS_SEED = 11
INDEXED_DOCUMENTS = 80
HELD_OUT_DOCUMENTS = 1500
ACTORS = 128
#: Two partitions, so the single-node tree routes over the simulated bus and
#: the sharded workload gets one shard process per partition from the same
#: checkpoint.
INDEX_CONFIG = SemTreeConfig(dimensions=4, bucket_size=16, max_partitions=2,
                             partition_capacity=800)
K = 3
#: Median range answer ~10 matches at this corpus size (novel queries).
RADIUS = 0.03

#: A query on the wire: (kind, triple); kind is "knn" or "range".
Query = Tuple[str, Triple]


@dataclass
class Corpus:
    indexed: List  # RequirementsDocument
    novel: List[Triple]  # distinct held-out triples absent from the index
    actors: List[str]
    parameters: Dict[str, List[str]]

    @property
    def vocabulary_hints(self) -> Dict[str, object]:
        return {"actors": list(self.actors), "parameters": dict(self.parameters)}


def generate() -> Corpus:
    config = GeneratorConfig(
        documents=INDEXED_DOCUMENTS + HELD_OUT_DOCUMENTS,
        requirements_per_document=6, sentences_per_requirement=3,
        actors=ACTORS, seed=CORPUS_SEED,
    )
    synthetic = RequirementsGenerator(config).generate()
    indexed = synthetic.documents[:INDEXED_DOCUMENTS]
    stored = {triple for document in indexed for requirement in document
              for triple in requirement}
    novel = list(dict.fromkeys(
        triple for document in synthetic.documents[INDEXED_DOCUMENTS:]
        for requirement in document for triple in requirement
        if triple not in stored
    ))
    return Corpus(indexed, novel, synthetic.actor_names,
                  synthetic.parameter_values)


def build_index(corpus: Corpus) -> SemTreeIndex:
    vocabularies = build_requirement_vocabularies(corpus.actors, corpus.parameters)
    index = SemTreeIndex(build_requirement_distance(vocabularies), INDEX_CONFIG)
    for document in corpus.indexed:
        index.add_document(document.to_rdf_document())
    index.build()
    return index


def checkpoint(index: SemTreeIndex, corpus: Corpus,
               directory: pathlib.Path) -> Tuple[pathlib.Path, pathlib.Path]:
    """Write the boot checkpoint (with vocabulary hints) and an empty WAL."""
    directory.mkdir(parents=True, exist_ok=True)
    snapshot, wal = directory / "snapshot.json", directory / "wal.jsonl"
    live = IngestingIndex(index, wal, vocabulary_hints=corpus.vocabulary_hints)
    live.checkpoint(snapshot)
    live.close()
    return snapshot, wal


@dataclass
class Setup:
    corpus: Corpus
    index: SemTreeIndex
    snapshot: pathlib.Path
    wal: pathlib.Path
    build_seconds: float


def prepare(directory: pathlib.Path) -> Setup:
    """Corpus generation → index build → checkpoint (the in-process half of set-up)."""
    corpus = generate()
    started = time.perf_counter()
    index = build_index(corpus)
    build_seconds = time.perf_counter() - started
    snapshot, wal = checkpoint(index, corpus, directory)
    return Setup(corpus, index, snapshot, wal, build_seconds)


# -- request streams ----------------------------------------------------------------------

def key_groups(corpus: Corpus, index: SemTreeIndex) -> List[List[Triple]]:
    """Novel triples grouped by the point they project to, one group per point.

    The engine cache keys a query on its projected point, and held-out
    statements share points heavily (10525 of them occupy 886), so a
    stream of distinct triples is not a stream of distinct cache keys.
    Eq. (1) is a weighted sum of per-position distances, so an actor
    enters the projection only through its distances to the FastMap
    pivots' subjects, and a (function, parameter) pair only through its
    distances to theirs.  Actors are classed by projecting each with one
    fixed pair, pairs by projecting each with one fixed actor; a group is
    every (actor, pair) of one actor class and one pair class that the
    index does not store, and groups that still share a point are merged.
    The pairs are those of the held-out documents (other function/parameter
    combinations mostly answer range queries with nothing), the actors all
    of the generator's.
    """
    stored = {triple for document in corpus.indexed for requirement in document
              for triple in requirement}
    pairs = list(dict.fromkeys((t.predicate, t.object) for t in corpus.novel))
    actors = list(dict.fromkeys(t.subject for t in corpus.novel))

    def classes(items, triple_of) -> List[List]:
        by_point: Dict[tuple, List] = {}
        for item in items:
            by_point.setdefault(index.embed_query(triple_of(item)).coordinates,
                                []).append(item)
        return list(by_point.values())

    actor_classes = classes(actors, lambda actor: Triple(actor, *pairs[0]))
    pair_classes = classes(pairs, lambda pair: Triple(actors[0], *pair))
    candidates = []
    for pair_class in pair_classes:
        for actor_class in actor_classes:
            members = [Triple(actor, *pair) for pair in pair_class
                       for actor in actor_class]
            members = [triple for triple in members if triple not in stored]
            if members:
                candidates.append(members)
    # Two classes can still meet at one point by coincidence: merge them.
    return [sum(merged, []) for merged in classes(candidates, lambda members: members[0])]


def novel_streams(groups: Sequence[List[Triple]], seed: int,
                  connections: int, laps: int) -> List[List[Query]]:
    """One request sequence per connection that never repeats a recent cache key.

    Each group is a k-NN key and a range key; every connection owns its
    own groups and issues their keys in one fixed order, lap after lap,
    each lap with the group's next member.  A key therefore recurs only
    after a whole lap of every connection (~2500 requests; the engine cache
    holds 1024 keys) and a request body only after two laps (~5000; the
    wire cache holds 4096 bodies): one-member groups, too many to issue in
    every lap, alternate between even and odd laps.  With both caches
    least-recently-used, neither ever hits.
    """
    rng = random.Random(seed)
    order = list(range(len(groups)))
    rng.shuffle(order)
    streams = []
    for connection in range(connections):
        keys = [(kind, groups[g], rng.random() < 0.5) for g in order[connection::connections]
                for kind in ("knn", "range")]
        rng.shuffle(keys)
        stream: List[Query] = []
        for lap in range(laps):
            for kind, members, odd in keys:
                if len(members) > 1:
                    stream.append((kind, members[lap % len(members)]))
                elif odd == bool(lap % 2):
                    stream.append((kind, members[0]))
        streams.append(stream)
    return streams


class ZipfStream:
    """Requests drawn Zipf(1.0)-distributed from a fixed pool of distinct ones."""

    def __init__(self, pool: Sequence, seed: int):
        self.pool = list(pool)
        self._rng = random.Random(seed)
        self._cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) for rank in range(len(self.pool))))

    def draw(self, count: int) -> List:
        return self._rng.choices(self.pool, cum_weights=self._cumulative, k=count)


def oracle_points(index: SemTreeIndex) -> List:
    """Every point stored in the in-process index's tree."""
    return list(index.tree.points())
