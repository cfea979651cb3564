"""Reproducible random-number streams.

Every stochastic operation in the package derives its generator from a
``SeedRecord``: the master seed plus a key path identifying the role of
the stream (process kind, level, replica index, ...).  Substreams are
obtained through ``numpy.random.SeedSequence`` spawn keys on top of the
counter-based Philox generator, so results do not depend on execution
order or on how replicas are distributed over workers.

Per-replica streams of one level can also be built in bulk:
``SeedRecord.philox_keys`` computes the Philox keys of many sibling records
at once with a NumPy copy of ``SeedSequence``'s entropy mixing, and
``KeyedPhilox`` moves one reused generator to each key in turn.  Either way
a record's draws are the same (notes/decisions.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

__all__ = ["SeedRecord", "KeyedPhilox", "as_seed_record"]

# Stable role codes; string labels in derive() map through this table so
# key paths stay integers (SeedSequence spawn keys must be ints).
_ROLE_CODES = {
    "fbm": 1,
    "bm": 2,
    "bridge": 3,
    "walk": 4,
    "exit": 5,
    "wiener": 6,
    "replica": 7,
    "supercritical": 10,
    "critical-lhs": 11,
    "critical-rhs": 12,
    "subcritical": 13,
    "scaling": 14,
    "calibrate": 15,
    "holdout": 16,
}

# numpy.random.SeedSequence's hash constants and pool size (numpy's
# bit_generator.pyx); philox_keys repeats its mixing with them.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"seed and key parts must be >= 0, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _wrap(value):
    """A product of uint32 words reduced mod 2^32: uint32 arrays wrap by
    themselves, Python ints need the mask."""
    return value & _MASK32 if isinstance(value, int) else value


def _mixed_keys(entropy: list, rows: int) -> np.ndarray:
    """Philox keys from entropy columns, one per word of the assembled
    entropy, at least the pool size of them.

    A column is a uint32 array with one word per row, or a Python int when
    every row has that word; the words common to all rows are then mixed
    once.  The result is ``SeedSequence.generate_state(2, np.uint64)`` of
    each row, shape (rows, 2).
    """
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = _wrap(value * hash_a)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _wrap(_wrap(x * _MIX_MULT_L) - _wrap(y * _MIX_MULT_R))
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_b = _INIT_B
    state = np.empty((rows, 4), np.uint32)
    for i, word in enumerate(pool):
        word = word ^ hash_b
        hash_b = (hash_b * _MULT_B) & _MASK32
        word = _wrap(word * hash_b)
        state[:, i] = word ^ (word >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class SeedRecord:
    """Replicable identity of one random stream.

    ``bit_generator`` and ``normal_method`` are informational: they pin the
    algorithms used so serialized paths state how they were produced.
    """

    master_seed: int
    key: tuple[int, ...] = field(default=())
    bit_generator: str = "Philox"
    normal_method: str = "ziggurat"

    def derive(self, *parts: int | str) -> "SeedRecord":
        """Child stream keyed by role labels and indices."""
        return replace(self, key=self.key + _codes(parts))

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.key)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def philox_keys(self, indices, *suffix: int | str) -> np.ndarray:
        """Philox keys of ``self.derive(i, *suffix)`` for every ``i`` in ``indices``.

        Row r is ``SeedSequence(master_seed, spawn_key=key).generate_state(2,
        np.uint64)`` for the key of index ``indices[r]``, the key that
        ``generator()`` gives Philox; all rows are mixed at once.  Indices
        must lie in [0, 2^32), one entropy word each.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() > _MASK32)):
            raise ValueError("indices must be a 1-d array of ints in [0, 2^32)")
        run = _uint32_words(int(self.master_seed))
        run += [0] * (_POOL_SIZE - len(run))  # SeedSequence pads when spawn-keyed
        before = [w for p in self.key for w in _uint32_words(p)]
        after = [w for p in _codes(suffix) for w in _uint32_words(p)]
        return _mixed_keys(run + before + [idx.astype(np.uint32)] + after, len(idx))

    def philox_key(self) -> np.ndarray:
        """The key ``generator()`` gives Philox, as a one-row ``philox_keys`` array."""
        return self._seed_sequence().generate_state(2, np.uint64)[None]

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "key": list(self.key),
            "bit_generator": self.bit_generator,
            "normal_method": self.normal_method,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SeedRecord":
        return cls(
            master_seed=int(d["master_seed"]),
            key=tuple(int(k) for k in d.get("key", ())),
            bit_generator=str(d.get("bit_generator", "Philox")),
            normal_method=str(d.get("normal_method", "ziggurat")),
        )


def _codes(parts) -> tuple:
    """Integer key parts for role labels and indices."""
    codes = []
    for p in parts:
        if isinstance(p, str):
            try:
                codes.append(_ROLE_CODES[p])
            except KeyError:
                raise ValueError(f"unknown stream role {p!r}") from None
        else:
            codes.append(int(p))
    return tuple(codes)


class KeyedPhilox:
    """One Philox generator that is moved to a given key instead of rebuilt.

    ``at(key)`` sets the key, a zero counter and an empty buffer, the state a
    new ``Philox`` seeded from a ``SeedSequence`` starts in, so the returned
    generator draws what ``generator()`` of the record with that Philox key
    would draw.  The generator is shared: each ``at`` call restarts it.

    ``one_key()`` is the instance the one-key draws (``sample_fgn``,
    ``sample_fbm_two_sided``, ``sample_joint``) share, which saves building
    and seeding one per call; a draw at one key leaves no state behind that
    another draw reads.  It is for single-threaded use.  Loops over many
    keys keep their own instance.
    """

    def __init__(self):
        self._bits = np.random.Philox(0)
        self._generator = np.random.Generator(self._bits)
        # Python ints: Philox's state setter reads the words one at a time,
        # and NumPy scalars made each switch cost about twice as much
        # (notes/decisions.md)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # = buffer size: nothing buffered
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, key: np.ndarray) -> np.random.Generator:
        self._state["state"]["key"] = key.tolist()
        self._bits.state = self._state
        return self._generator


@lru_cache(maxsize=1)
def one_key() -> KeyedPhilox:
    """The ``KeyedPhilox`` shared by the one-key draws, built on first use."""
    return KeyedPhilox()


def as_seed_record(seed: "int | SeedRecord") -> SeedRecord:
    """Accept a bare integer seed or a ready-made record."""
    if isinstance(seed, SeedRecord):
        return seed
    return SeedRecord(master_seed=int(seed))
