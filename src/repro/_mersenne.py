"""``random.Random``'s Mersenne Twister words, drawn in bulk for numpy.

``rng.getrandbits(32 * n)`` runs the generator ``n`` times and packs the
words least significant first, so its little-endian bytes are exactly the
words that ``n`` calls of ``rng.getrandbits(32)`` would return, in order,
and ``rng`` ends up where those calls would leave it.  Whole-array code
then applies CPython's draw rules to the words
(:func:`repro.simulation.workloads.uniform_pairs`,
:func:`repro.faults.model.reservoir_indices`).  No numpy generator is
built, positioned or shared, and ``numpy.random`` is never imported: it
would add ~2.4 MiB of resident memory to a process that only samples.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["check_replayable", "mt_words"]

#: the ``random.Random`` methods whose rules the replays reproduce
_REPLAYED = ("getrandbits", "_randbelow", "randrange")


def check_replayable(rng: random.Random) -> None:
    """Raise :class:`InvalidParameterError` unless ``rng`` draws by
    :class:`random.Random`'s own ``getrandbits``, ``_randbelow`` and
    ``randrange`` — the only rules a replay reproduces (``SystemRandom``
    has no stream to replay)."""
    if not isinstance(rng, random.Random) or any(
        getattr(type(rng), name) is not getattr(random.Random, name)
        for name in _REPLAYED
    ):
        raise InvalidParameterError(
            f"cannot replay the draws of a {type(rng).__name__}: need "
            f"random.Random's own getrandbits, _randbelow and randrange"
        )


def mt_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` ``rng.getrandbits(32)`` words, as ``uint64``.

    Advances ``rng`` past exactly those words.
    """
    packed = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(packed, dtype="<u4").astype(np.uint64)
