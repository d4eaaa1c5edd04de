"""Deterministic seed derivation.

All randomness in the package flows from integer master seeds. Sub-streams
are derived from (seed, key...) tuples, one per trial and one per
permutation test (which draws all its surrogates from it, in order), so
reruns give bit-identical results, whatever order the work runs in.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _as_entropy(key):
    if isinstance(key, (bool, float)):
        raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK64
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError(f"seed keys must be int or str, got {type(key).__name__}")


def derive_rng(*keys) -> np.random.Generator:
    """Generator seeded deterministically from a tuple of int/str keys."""
    return np.random.default_rng(
        np.random.SeedSequence([_as_entropy(k) for k in keys])
    )


def derive_seed(*keys) -> int:
    """Collapse int/str keys into a single reproducible integer seed."""
    ss = np.random.SeedSequence([_as_entropy(k) for k in keys])
    return int(ss.generate_state(1, np.uint64)[0])

