"""Deterministic seed derivation.

One user-facing --seed drives every random draw in a pipeline. Components
derive their own independent streams through component_seed, so adding a new
consumer never perturbs the draws of existing ones; each seeds its own
generator with `np.random.default_rng(component_seed(seed, name))`.
"""

import hashlib


def component_seed(seed: int, name: str) -> int:
    """Derive a 64-bit seed for a named component.

    The value is sha256(f"{seed}:{name}") truncated to 8 bytes, which is
    stable across runs, platforms and Python versions.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
