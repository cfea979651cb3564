"""Reproducible random-number streams.

Every stochastic operation in the package derives its generator from a
``SeedRecord``: the master seed plus a key path identifying the role of
the stream (process kind, level, replica index, ...).  Substreams are
obtained through ``numpy.random.SeedSequence`` spawn keys on top of the
counter-based Philox generator, so results do not depend on execution
order or on how replicas are distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["SeedRecord", "as_seed_record"]

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
        codes = []
        for p in parts:
            if isinstance(p, str):
                try:
                    codes.append(_ROLE_CODES[p])
                except KeyError:
                    raise ValueError(f"unknown stream role {p!r}") from None
            else:
                codes.append(int(p))
        return replace(self, key=self.key + tuple(codes))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(seq))

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


def as_seed_record(seed: "int | SeedRecord") -> SeedRecord:
    """Accept a bare integer seed or a ready-made record."""
    if isinstance(seed, SeedRecord):
        return seed
    return SeedRecord(master_seed=int(seed))
