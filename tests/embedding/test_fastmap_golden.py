"""FastMap over the case-study distance, pinned bit for bit.

The expected values were produced by the textbook O(m·n) Levenshtein and a
fit that recomputed the pivots' residual rows.  The bit-parallel kernel and
the row reuse must not move a single coordinate or pivot.
"""

import hashlib

import pytest

from repro.embedding import FastMap
from repro.requirements import (GeneratorConfig, RequirementsGenerator,
                                build_requirement_distance,
                                build_requirement_vocabularies)

COORDINATES_SHA256 = "958b93f79ae2c696195281320560ab86ae597880b10693980412011c2b348941"

PIVOTS = [
    ("(OBSW009, Fun:clear_signal, SigType:undervoltageflag)",
     "(HWD001, Fun:enable_mode, ModeType:maintenance-mode)", 0.7200000000000002),
    ("(OBSW002, Fun:enable_mode, ModeType:standbymode)",
     "(HWD003, Fun:start_proc, ParType:memory-scrub)", 0.7199843985500808),
    ("(OBSW013, Fun:start_proc, ParType:downlink)",
     "(HWD002, Fun:clear_signal, SigType:overtemperature-flag)", 0.721044115562096),
    ("(OBSW011, Fun:acquire_in, InType:pre-launch-phase)",
     "(HWD001, Fun:accept_cmd, CmdType:shutdown)", 0.6050186606527537),
]


@pytest.fixture(scope="module")
def fitted():
    config = GeneratorConfig(documents=8, requirements_per_document=6,
                             sentences_per_requirement=3, actors=16, seed=11)
    synthetic = RequirementsGenerator(config).generate()
    triples = list(dict.fromkeys(synthetic.all_triples()))
    distance = build_requirement_distance(
        build_requirement_vocabularies(synthetic.actor_names, synthetic.parameter_values))
    fastmap = FastMap(distance, dimensions=4, seed=0)
    return fastmap, fastmap.fit(triples)


def test_coordinates_are_bit_identical(fitted):
    _, space = fitted
    assert len(space) == 132
    assert space.coordinates.shape == (132, 4)
    assert hashlib.sha256(space.coordinates.tobytes()).hexdigest() == COORDINATES_SHA256


def test_pivots_are_identical(fitted):
    _, space = fitted
    assert [(str(pivot.first), str(pivot.second), pivot.distance)
            for pivot in space.pivots] == PIVOTS


def test_fit_evaluates_only_the_pivot_walk(fitted):
    # 21 residual rows of 132 evaluations: 5 walk rows per dimension, plus
    # one pivot row that its dimension's walk never computed.  Recomputing
    # both pivots' rows in every dimension would take 28 rows (3696).
    fastmap, _ = fitted
    assert fastmap.distance_evaluations == 21 * 132
