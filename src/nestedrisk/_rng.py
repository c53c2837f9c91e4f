"""Counter-based random number primitives.

Draw ``i`` of a stream is a pure function of ``(seed, i)``: there is no
mutable generator state, so any slice of a stream can be produced on any
worker and the result does not depend on scheduling. The mixing function is
the splitmix64 finalizer applied to ``seed + (i + 1) * GAMMA`` (the
splitmix64 output sequence itself), which is the published derivation used
for replication seeds as well.

Normal variates come from the inverse CDF applied to the uniform stream;
``scipy.special.ndtri`` is accurate to double precision.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# xor-folded into the seed when deriving child seeds, so the seed-derivation
# stream cannot collide with the draw stream of the same seed
_SEED_DOMAIN = 0xD6E8FEB86659FD93

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place (wrapping
    arithmetic); one scratch array holds the shifts. Returns ``z``."""
    t = z >> _S30
    z ^= t
    z *= _M1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=t)
    return z


def counter_uint64(seed: int, start: int, count: int) -> np.ndarray:
    """uint64 stream values for counters start .. start+count-1."""
    seed = int(seed) & _MASK
    # the state seed + (i + 1) * GAMMA is formed in the counter buffer
    state = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    state *= np.uint64(_GAMMA)
    state += np.uint64(seed)
    return _finalize(state)


def counter_uniform(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform(0, 1) doubles, strictly inside the open interval."""
    bits = counter_uint64(seed, start, count)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def counter_normal(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal draws via inverse CDF of the uniform stream."""
    return ndtri(counter_uniform(seed, start, count))


def derive_seed(seed: int, index: int) -> int:
    """Child seed for replication ``index``: hash64(seed, index).

    Fixed published mixing: splitmix64 output ``index`` of the stream keyed
    by ``seed xor SEED_DOMAIN``.
    """
    key = (int(seed) ^ _SEED_DOMAIN) & _MASK
    z = (key + (int(index) + 1) * _GAMMA) & _MASK
    arr = _finalize(np.array([z], dtype=np.uint64))
    return int(arr[0])
