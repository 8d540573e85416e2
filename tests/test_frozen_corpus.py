"""Frozen corpus: the seeded ``mixed_corpus`` pinned by digest.

Each digest is the sha256 of the corpus's ``set_to_json`` lines, one member
per line in corpus order, each ending in a newline.  They were recorded while
every member was still drawn from its own
``default_rng(SeedSequence([child]))``, before the seeding was computed in
bulk, so they pin that the batched seeding reproduces NumPy's streams.
"""

import hashlib

import pytest

from gaussiso.corpus import mixed_corpus
from gaussiso.sets import set_to_json

FROZEN_DIGESTS = [
    (10_000, 1, "47c5a7d501d5121fd872eae8123aef37a20eb1d82237b72e295fc1961fdb0352"),
    (10_000, 2, "37faa3ccefa439bb9860acefb45999130c7ea3086d90e1d4565f7c97bbdc5647"),
    (10_000, 3, "098366f60cb3574fd36d6e056beed17c537fcdb2c3e83a838da6bf2f5c0872ee"),
    (100_000, 42, "247afcf21b74a294337b6b127763021e83d72582b8b2253d70a801d4feaa792c"),
]


def corpus_digest(n: int, seed: int) -> str:
    digest = hashlib.sha256()
    for e in mixed_corpus(n, seed):
        digest.update(set_to_json(e).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("n, seed, expected", FROZEN_DIGESTS)
def test_corpus_digest_is_frozen(n, seed, expected):
    assert corpus_digest(n, seed) == expected
