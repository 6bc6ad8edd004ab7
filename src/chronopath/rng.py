"""Deterministic splittable randomness.

All randomness in the package flows from one 64-bit master seed.  Child
generators are derived by hashing the master seed together with a string
path, so independent components (trials, runs, pairs) get independent
streams and every run is reproducible bit for bit from the seed alone.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, *path: object) -> int:
    material = ":".join([str(seed)] + [str(p) for p in path]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def child_rng(seed: int, *path: object) -> random.Random:
    return random.Random(derive_seed(seed, *path))

