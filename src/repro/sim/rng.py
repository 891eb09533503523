"""Seeded random-number streams for reproducible simulations.

Every stochastic component draws from its own named substream derived
from the experiment's master seed, so adding a component (or reordering
draws inside one) never perturbs the random sequence seen by the others.
"""

from __future__ import annotations

import hashlib
from math import ceil, log

import numpy as np

__all__ = ["RngFactory", "sample", "stable_hash"]


def stable_hash(*parts: object) -> int:
    """Platform- and run-stable 64-bit hash of the given parts.

    Python's builtin ``hash`` is salted per process; this one is not, so
    substream derivation is reproducible across runs and machines.
    """
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def sample(getrandbits, population, k: int) -> list:
    """``random.Random.sample(population, k)``, drawn through *getrandbits*.

    The library sampler inlined draw for draw: the same ``getrandbits``
    calls in both of its branches (a partial swap over a copy of a small
    population, rejection against the picked indices above the
    library's size threshold), hence the same picks and the same RNG
    state after, without the library's type checks and per-draw method
    calls.  *getrandbits* is a ``random.Random`` instance's bound
    ``getrandbits``.  Like the library, it consumes the RNG as a function
    of ``len(population)`` and *k* alone.  ``tests/test_routing_sampler.py``
    pins the two.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    out = []
    # the library's list-vs-set size threshold, verbatim
    if n <= (21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))):
        pool = list(population)
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        picked = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked.add(j)
            out.append(population[j])
    return out


class RngFactory:
    """Derives independent named numpy Generators from one master seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def stream(self, *name: object) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, stable_hash(*name)])
        )

    def spawn(self, *name: object) -> "RngFactory":
        """A child factory whose streams are disjoint from the parent's."""
        return RngFactory(stable_hash(self.seed, "spawn", *name))
