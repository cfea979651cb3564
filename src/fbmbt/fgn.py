"""Exact-covariance Gaussian samplers for fractional Brownian motion.

Covariance kernels
------------------
Two-sided fBm with Hurst parameter ``H`` has covariance

    C_H(t, s) = 0.5 * (|s|^{2H} + |t|^{2H} - |t - s|^{2H}),   s, t in R,

and its increments over any uniform grid (positive and negative times
alike) form stationary fractional Gaussian noise with autocovariance
``spacing^{2H} * rho(q)`` where

    rho(q) = 0.5 * (|q+1|^{2H} + |q-1|^{2H} - 2|q|^{2H}).

Sampling
--------
Davies-Harte circulant embedding of the increment sequence, exact whenever
the embedding spectrum is nonnegative.  There is one draw: keyed rows of
one-sided fGn (``sample_fgn_rows``), summed into two-sided paths by
``sample_fbm_rows``; ``sample_fgn`` and ``sample_fbm_two_sided`` are their
one-key batches.  The minimal embedding of fGn is nonnegative in exact
arithmetic (Dietrich & Newsam 1997); a spectrum negative beyond roundoff
raises ``EmbeddingError`` naming (n, H).

References: Davies & Harte (1987); Dieker, "Simulation of fractional
Brownian motion" (2004).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from .streams import KeyedPhilox, SeedRecord, as_seed_record

__all__ = [
    "CRITICAL_HURST",
    "HurstParameter",
    "FbmPath",
    "BmPath",
    "EmbeddingError",
    "ExtentError",
    "fbm_covariance",
    "increment_autocovariance",
    "sample_fgn",
    "sample_fbm_two_sided",
    "sample_fbm_rows",
    "sample_fgn_rows",
    "sample_bm",
    "dyadic_step",
    "uniform_step",
    "coarsen",
    "write_path",
    "read_path",
    "write_path_csv",
]

CRITICAL_HURST = 1.0 / 6.0
_CRITICAL_TOL = 1e-12

# Working-array bytes per chunk of sample_fgn_rows and sample_fbm_rows, at
# 72 bytes per increment of a row: normals, half-spectrum and irfft output
# (48, allocated once per call), the sums and path of a two-sided row (16),
# and irfft's own scratch.
_BATCH_BYTES = 2**20

FORMAT_VERSION = 1


class EmbeddingError(RuntimeError):
    """Circulant embedding spectrum negative beyond roundoff."""


class ExtentError(ValueError):
    """A requested time lies outside the sampled grid."""


@dataclass(frozen=True)
class HurstParameter:
    """Hurst exponent in (0, 1) with its change-of-variable regime tag."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (0.0 < v < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {v}")
        object.__setattr__(self, "value", v)

    @property
    def regime(self) -> str:
        """'subcritical' below 1/6, 'critical' at 1/6, 'supercritical' above."""
        if abs(self.value - CRITICAL_HURST) <= _CRITICAL_TOL:
            return "critical"
        return "subcritical" if self.value < CRITICAL_HURST else "supercritical"

    def __float__(self) -> float:
        return self.value


def _hvalue(hurst: "float | HurstParameter") -> float:
    if isinstance(hurst, HurstParameter):
        return hurst.value
    return HurstParameter(float(hurst)).value


def dyadic_step(level: int) -> float:
    """Spatial grid step 2^{-level/2}.

    Single source of that float so grid arithmetic matches bit-for-bit
    across modules (for odd levels the value is irrational and rounds).
    """
    return float(2.0 ** (-level / 2.0))


def uniform_step(level: int) -> float:
    """Temporal grid step 2^{-level}."""
    return float(2.0 ** (-float(level)))


def floor_steps(level: float, t: float) -> int:
    """floor(2^level t), snapped to an integer within 1e-9 relative.

    ``level`` is an integer or a half-integer.  2^level t is formed with
    ``ldexp`` on the whole part of the level and t's own exponent, so it
    overflows or underflows only where the product does, not where 2^level
    alone does.
    """
    whole = math.floor(level)
    m, e = math.frexp(t)
    x = math.ldexp(m * 2.0 ** (level - whole), e + whole)
    r = round(x)
    return int(r) if abs(x - r) <= 1e-9 * max(1.0, abs(x)) else math.floor(x)


def fbm_covariance(t, s, hurst) -> "float | np.ndarray":
    """E[X_t X_s] for two-sided fBm; symmetric in (t, s), broadcasts."""
    h2 = 2.0 * _hvalue(hurst)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    out = 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)
    return float(out) if out.ndim == 0 else out


def increment_autocovariance(q, hurst) -> "float | np.ndarray":
    """Autocovariance rho(q) of unit-spacing fGn; rho(0) = 1, even in q."""
    h2 = 2.0 * _hvalue(hurst)
    q = np.asarray(q, dtype=float)
    out = 0.5 * (np.abs(q + 1.0) ** h2 + np.abs(q - 1.0) ** h2 - 2.0 * np.abs(q) ** h2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Sampling machinery
# ---------------------------------------------------------------------------

def _circulant_spectrum(n_inc: int, hvalue: float) -> np.ndarray:
    """Eigenvalues of the 2n circulant embedding the fGn Toeplitz covariance."""
    q = np.arange(n_inc + 1)
    gamma = increment_autocovariance(q, hvalue)
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2n, symmetric
    eig = np.fft.rfft(row).real
    return eig


@lru_cache(maxsize=64)
def _embedding_weights(n_inc: int, hvalue: float) -> np.ndarray:
    """Read-only weights sqrt(lam_0), sqrt(lam_k / 2) (0 < k < n), sqrt(lam_n).

    Raises EmbeddingError when the spectrum is negative beyond tolerance.
    """
    eig = _circulant_spectrum(n_inc, hvalue)
    neg = eig.min()
    if neg < -1e-8 * eig.max():
        raise EmbeddingError(
            f"circulant spectrum has eigenvalue {neg:.3e} (min) for "
            f"n={n_inc}, H={hvalue}; exact embedding unavailable"
        )
    lam = np.clip(eig, 0.0, None)  # clip roundoff-level negatives
    weights = np.sqrt(lam)
    weights[1:n_inc] = np.sqrt(lam[1:n_inc] / 2.0)
    weights.setflags(write=False)
    return weights


def _embed(re: np.ndarray, im: np.ndarray, weights: np.ndarray,
           spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """fGn rows from the normals of their half-spectra, one row per row of re.

    ``spectrum`` (complex, the shape of ``re``) and ``out`` (rows, 2 n_inc)
    are overwritten; the result is the view of the first n_inc columns of
    ``out``.
    """
    n_inc = re.shape[1] - 1
    np.multiply(re, weights, out=spectrum.real)
    spectrum.imag[:, 0] = 0.0
    spectrum.imag[:, n_inc] = 0.0
    np.multiply(im, weights[1:n_inc], out=spectrum.imag[:, 1:n_inc])
    np.fft.irfft(spectrum, n=2 * n_inc, axis=1, out=out)
    fgn = out[:, :n_inc]
    fgn *= np.sqrt(2 * n_inc)
    return fgn


def _sample_fgn_rows(keys: np.ndarray, stream: KeyedPhilox, n_inc: int,
                     hvalue: float) -> Iterator[np.ndarray]:
    """Standardized fGn, one row per Philox key, in chunks of rows: the one
    Davies-Harte draw of the package.

    Row i takes 2 n_inc normals from the generator at ``keys[i]``: the real
    parts of the half-spectrum (n_inc + 1) and then its interior imaginary
    parts (n_inc - 1).  One embedding and ``irfft`` call serve a chunk.  The
    working arrays are allocated once and every chunk is a view into them,
    valid until the next chunk is drawn.
    """
    weights = _embedding_weights(n_inc, hvalue)
    rows = max(1, min(len(keys), _BATCH_BYTES // (72 * n_inc)))
    # a row's 2 n_inc normals in one fill: the ziggurat keeps nothing
    # between calls, so re then im come out as two calls would draw them
    normals = np.empty((rows, 2 * n_inc))
    re, im = normals[:, :n_inc + 1], normals[:, n_inc + 1:]
    spectrum = np.empty(re.shape, dtype=complex)
    out = np.empty((rows, 2 * n_inc))
    for start in range(0, len(keys), rows):
        chunk = keys[start:start + rows]
        for k, row in zip(chunk, normals):
            stream.at(k).standard_normal(out=row)
        m = len(chunk)
        yield _embed(re[:m], im[:m], weights, spectrum[:m], out[:m])


# ---------------------------------------------------------------------------
# Path containers
# ---------------------------------------------------------------------------

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FbmPath:
    """Two-sided fBm sample on the uniform grid (i - M) * spacing, i = 0..2M.

    values[half_extent] is time zero, pinned to 0.0 exactly.
    """

    hurst: HurstParameter
    spacing: float
    half_extent: int
    values: np.ndarray
    seed_record: SeedRecord
    method: str = "circulant"  # the only sampler; old files are read as written

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if len(self.values) != 2 * self.half_extent + 1:
            raise ValueError("values length must be 2*half_extent + 1")
        if self.values[self.half_extent] != 0.0:
            raise ValueError("value at time zero must be exactly 0")

    @property
    def extent(self) -> float:
        """Largest |t| on the grid."""
        return self.half_extent * self.spacing

    def time_grid(self) -> np.ndarray:
        return (np.arange(2 * self.half_extent + 1) - self.half_extent) * self.spacing

    def dyadic_stride(self, level: int) -> int:
        """Integer stride m with m * spacing == 2^{-level/2}, else error."""
        ratio = dyadic_step(level) / self.spacing
        m = int(round(ratio))
        if m < 1 or ratio != float(m):
            raise ValueError(
                f"path spacing {self.spacing} does not subdivide the level-"
                f"{level} dyadic step {dyadic_step(level)}"
            )
        return m


@dataclass(frozen=True)
class BmPath:
    """One-sided standard Brownian path on 0, spacing, 2*spacing, ..."""

    spacing: float
    horizon: float
    values: np.ndarray
    seed_record: SeedRecord

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values[0] != 0.0:
            raise ValueError("Brownian path must start at 0")


def _check_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def sample_fgn(hurst, spacing: float, n_inc: int,
               seed: "int | SeedRecord") -> np.ndarray:
    """Exact one-sided fGn: the ``n_inc`` increments of fBm at ``spacing``.

    Entry ``k`` is ``X((k+1) spacing) - X(k spacing)``; for ``n_inc == 0``
    the result is empty and nothing is drawn.  The draw is the one-key batch
    of ``sample_fgn_rows`` on the record's Philox key.
    """
    if _row_sizes("n_inc", n_inc, least=0) == 0:
        _hvalue(hurst)
        _check_positive_finite("spacing", spacing)
        return np.empty(0)
    ((_, rows),) = sample_fgn_rows(hurst, spacing, n_inc,
                                   as_seed_record(seed).philox_key(), KeyedPhilox())
    return rows[0].copy()


def _two_sided(inc: np.ndarray, half_extent: int) -> np.ndarray:
    """Cumulative sums of (rows of) increments, re-based to 0 at half_extent."""
    cs = np.zeros(inc.shape[:-1] + (inc.shape[-1] + 1,))
    np.cumsum(inc, axis=-1, out=cs[..., 1:])
    values = cs - cs[..., half_extent, None]
    values[..., half_extent] = 0.0
    return values


def sample_fbm_two_sided(hurst, spacing: float, half_extent: int,
                         seed: "int | SeedRecord") -> FbmPath:
    """Exact two-sided fBm path; deterministic given the seed record.

    The one-key batch of ``sample_fbm_rows``: the cumulative sum of
    ``sample_fgn`` over ``2 * half_extent`` increments, re-based at the
    middle of the grid.
    """
    record = as_seed_record(seed)
    ((_, rows),) = sample_fbm_rows(hurst, spacing, half_extent, record.philox_key(),
                                   KeyedPhilox())
    return FbmPath(hurst=HurstParameter(_hvalue(hurst)), spacing=float(spacing),
                   half_extent=int(half_extent), values=rows[0], seed_record=record)


def sample_fbm_rows(hurst, spacing: float, half_extent, keys: np.ndarray,
                    stream: KeyedPhilox) -> Iterator[tuple]:
    """Two-sided fBm paths, one per Philox key, in batches ``(index, rows)``.

    The batches of ``sample_fgn_rows`` over ``2 * half_extent`` increments,
    each row summed into a new path of ``2 * half + 1`` values, re-based to
    0 at index ``half``.
    """
    halves = _row_sizes("half_extent", half_extent)
    for index, inc in sample_fgn_rows(hurst, spacing, 2 * halves, keys, stream):
        yield index, _two_sided(inc, inc.shape[1] // 2)


def sample_fgn_rows(hurst, spacing: float, n_inc, keys: np.ndarray,
                    stream: KeyedPhilox) -> Iterator[tuple]:
    """One-sided fGn rows, one per Philox key, in batches ``(index, rows)``.

    ``n_inc`` is one size for all keys or one per key.  Row j is the draw of
    ``_sample_fgn_rows`` at the Philox key ``keys[index[j]]`` and its size,
    times ``spacing**H``: it depends on that key alone, so a record's row is
    the same in every batch it is drawn in, and ``sample_fgn`` is the
    one-key batch.  Each key is in one batch.  Keys are drawn by size,
    smallest first, in chunks whose embedding and ``irfft`` run in one call
    on about ``_BATCH_BYTES`` of working arrays allocated once per size:
    ``rows`` is valid until the next batch is drawn.
    """
    h = HurstParameter(_hvalue(hurst))
    _check_positive_finite("spacing", spacing)
    sizes = np.broadcast_to(_row_sizes("n_inc", n_inc), len(keys))
    scale = spacing**h.value
    for n in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == n)
        start = 0
        for fgn in _sample_fgn_rows(keys[same], stream, n, h.value):
            fgn *= scale
            yield same[start:start + len(fgn)], fgn
            start += len(fgn)


def _row_sizes(name: str, sizes, least: int = 1) -> np.ndarray:
    """Row sizes as int64, rejecting any that is not an integer >= ``least``
    (booleans included, as ``stats.is_integral`` does)."""
    given = np.asarray(sizes)
    out = given.astype(np.int64)
    if given.dtype == bool or (out != given).any() or (out < least).any():
        raise ValueError(f"each {name} must be an integer >= {least}, got {sizes}")
    return out


def sample_bm(horizon: float, spacing: float, seed: "int | SeedRecord") -> BmPath:
    """Standard Brownian path: cumulative i.i.d. N(0, spacing) increments."""
    _check_positive_finite("horizon", horizon)
    _check_positive_finite("spacing", spacing)
    record = as_seed_record(seed)
    rng = record.generator()
    n = int(np.ceil(horizon / spacing))
    inc = rng.standard_normal(n) * np.sqrt(spacing)
    values = np.concatenate([[0.0], np.cumsum(inc)])
    return BmPath(spacing=float(spacing), horizon=n * float(spacing),
                  values=values, seed_record=record)


def coarsen(path: FbmPath, factor: int) -> FbmPath:
    """Restriction of the same realization to a grid coarser by ``factor``."""
    factor = int(factor)
    if factor < 1 or path.half_extent % factor != 0:
        raise ValueError(f"factor {factor} must divide half_extent {path.half_extent}")
    values = path.values[::factor].copy()
    return FbmPath(hurst=path.hurst, spacing=path.spacing * factor,
                   half_extent=path.half_extent // factor, values=values,
                   seed_record=path.seed_record, method=path.method)


# ---------------------------------------------------------------------------
# Serialization: one-line JSON header + little-endian float64 payload
# ---------------------------------------------------------------------------

def write_path(path_obj: "FbmPath | BmPath", file: "str | Path") -> None:
    if isinstance(path_obj, FbmPath):
        header = {
            "format_version": FORMAT_VERSION,
            "kind": "fbm",
            "hurst": path_obj.hurst.value,
            "spacing": path_obj.spacing,
            "half_extent": path_obj.half_extent,
            "method": path_obj.method,
            "seed_record": path_obj.seed_record.to_dict(),
        }
    elif isinstance(path_obj, BmPath):
        header = {
            "format_version": FORMAT_VERSION,
            "kind": "bm",
            "spacing": path_obj.spacing,
            "horizon": path_obj.horizon,
            "seed_record": path_obj.seed_record.to_dict(),
        }
    else:
        raise TypeError(f"cannot serialize {type(path_obj).__name__}")
    payload = np.asarray(path_obj.values, dtype="<f8").tobytes()
    with open(file, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def read_path(file: "str | Path") -> "FbmPath | BmPath":
    with open(file, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {header.get('format_version')}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    record = SeedRecord.from_dict(header["seed_record"])
    if header["kind"] == "fbm":
        return FbmPath(hurst=HurstParameter(header["hurst"]),
                       spacing=header["spacing"],
                       half_extent=header["half_extent"],
                       values=values, seed_record=record,
                       method=header.get("method", "circulant"))
    if header["kind"] == "bm":
        return BmPath(spacing=header["spacing"], horizon=header["horizon"],
                      values=values, seed_record=record)
    raise ValueError(f"unknown path kind {header['kind']!r}")


def write_path_csv(path_obj: "FbmPath | BmPath", file: "str | Path") -> None:
    """Interop format: time,value rows."""
    if isinstance(path_obj, FbmPath):
        times = path_obj.time_grid()
    else:
        times = np.arange(len(path_obj.values)) * path_obj.spacing
    with open(file, "w", encoding="utf-8") as fh:
        fh.write("time,value\n")
        for t, v in zip(times, path_obj.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")
