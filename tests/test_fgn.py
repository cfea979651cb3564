"""Covariance kernels and exact-law samplers."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import fbmbt.fgn as fgn_mod
from fbmbt.fgn import (BmPath, EmbeddingError, FbmPath, HurstParameter,
                       dyadic_step, fbm_covariance, floor_steps,
                       increment_autocovariance, read_path, sample_bm,
                       sample_fbm_rows, sample_fbm_two_sided, sample_fgn,
                       sample_fgn_rows, write_path, write_path_csv)
from fbmbt.streams import KeyedPhilox, SeedRecord, one_key


def _old_sample_fgn_embedding(rng, n_inc, hvalue, size=1):
    """The embedding kernel before its weights were cached, kept verbatim."""
    eig = fgn_mod._circulant_spectrum(n_inc, hvalue)
    neg = eig.min()
    if neg < -1e-8 * eig.max():
        raise EmbeddingError(
            f"circulant spectrum has eigenvalue {neg:.3e} (min) for "
            f"n={n_inc}, H={hvalue}; exact embedding unavailable"
        )
    lam = np.clip(eig, 0.0, None)  # clip roundoff-level negatives
    two_n = 2 * n_inc
    # Hermitian half-spectrum draw: W_0, W_n real; interior complex.
    re = rng.standard_normal((size, n_inc + 1))
    im = rng.standard_normal((size, n_inc - 1))
    w = np.empty((size, n_inc + 1), dtype=complex)
    w[:, 0] = re[:, 0] * np.sqrt(lam[0])
    w[:, n_inc] = re[:, n_inc] * np.sqrt(lam[n_inc])
    interior = np.sqrt(lam[1:n_inc] / 2.0)
    w[:, 1:n_inc] = (re[:, 1:n_inc] + 1j * im) * interior
    fgn = np.fft.irfft(w, n=two_n, axis=1)[:, :n_inc]
    fgn *= np.sqrt(two_n)
    return fgn


def _keyed_rows(h, spacing, n_inc, record, reps):
    """``reps`` rows of ``sample_fgn_rows``, row r on the key of record.derive(r)."""
    out = np.empty((reps, n_inc))
    keys = record.philox_keys(range(reps))
    for index, rows in sample_fgn_rows(h, spacing, n_inc, keys, KeyedPhilox()):
        out[index] = rows
    return out


@pytest.fixture
def defective_spectrum(monkeypatch):
    """A spectrum with a negative eigenvalue, with no cached weights around it."""
    def bad_spectrum(n_inc, hvalue):
        eig = np.ones(n_inc + 1)
        eig[-1] = -1.0
        return eig

    fgn_mod._embedding_weights.cache_clear()
    monkeypatch.setattr(fgn_mod, "_circulant_spectrum", bad_spectrum)
    yield
    fgn_mod._embedding_weights.cache_clear()


def _mp_cov(t, s, h):
    t, s, h = mpmath.mpf(t), mpmath.mpf(s), mpmath.mpf(h)
    return float((abs(s) ** (2 * h) + abs(t) ** (2 * h) - abs(t - s) ** (2 * h)) / 2)


class TestHurstParameter:
    def test_bounds(self):
        with pytest.raises(ValueError):
            HurstParameter(0.0)
        with pytest.raises(ValueError):
            HurstParameter(1.0)
        with pytest.raises(ValueError):
            HurstParameter(1.5)

    @pytest.mark.parametrize("h,regime", [
        (0.10, "subcritical"),
        (1 / 6, "critical"),
        (1 / 6 + 5e-13, "critical"),
        (0.35, "supercritical"),
        (0.5, "supercritical"),
    ])
    def test_regime(self, h, regime):
        assert HurstParameter(h).regime == regime


class TestCovariance:
    def test_diagonal_is_power_law(self):
        assert fbm_covariance(1.0, 1.0, 0.3) == 1.0
        assert fbm_covariance(2.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_opposite_sides_uncorrelated_at_half(self):
        assert fbm_covariance(1.0, -1.0, 0.5) == 0.0

    @pytest.mark.parametrize("t,s,h", [
        (2.0, 1.0, 0.25), (0.7, -1.9, 1 / 6), (5.0, 3.5, 0.8), (-2.0, -0.5, 0.35),
    ])
    def test_matches_high_precision_oracle(self, t, s, h):
        assert fbm_covariance(t, s, h) == pytest.approx(_mp_cov(t, s, h), abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-5, 5, 500)
        s = rng.uniform(-5, 5, 500)
        for h in (0.2, 0.5, 0.8):
            np.testing.assert_array_equal(fbm_covariance(t, s, h),
                                          fbm_covariance(s, t, h))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("h", [0.1, 1 / 6, 0.35, 0.45])
    def test_increment_correlation_bound(self, sign, h):
        # |E(X_u (X_t - X_s))| <= |t - s|^{2H} for same-sign triples
        rng = np.random.default_rng(7)
        u, t, s = (sign * rng.uniform(1e-6, 10, (3, 10_000)))
        lhs = np.abs(fbm_covariance(u, t, h) - fbm_covariance(u, s, h))
        rhs = np.abs(t - s) ** (2 * h)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


class TestIncrementAutocovariance:
    def test_zero_lag_is_one(self):
        for h in (0.1, 0.3, 0.5, 0.9):
            assert increment_autocovariance(0, h) == 1.0

    def test_bm_increments_independent(self):
        assert increment_autocovariance(1, 0.5) == 0.0
        assert increment_autocovariance(5, 0.5) == 0.0

    def test_critical_lag_one_value(self):
        # (2^{1/3} - 2) / 2 by high-precision evaluation
        expected = float((mpmath.mpf(2) ** (mpmath.mpf(1) / 3) - 2) / 2)
        got = increment_autocovariance(1, 1 / 6)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-0.3700, abs=5e-5)

    def test_even_in_lag(self):
        q = np.arange(0, 50)
        for h in (0.2, 0.7):
            np.testing.assert_array_equal(increment_autocovariance(q, h),
                                          increment_autocovariance(-q, h))

    @pytest.mark.parametrize("h,r", [(0.3, 1), (0.3, 2), (0.25, 2)])
    def test_tail_decay_exponent(self, h, r):
        # |rho(q)|^{2r-1} ~ q^{(2H-2)(2r-1)} for large q
        q = 2 ** np.arange(6, 13)
        vals = np.abs(increment_autocovariance(q, h)) ** (2 * r - 1)
        fit = np.polyfit(np.log2(q), np.log2(vals), 1)[0]
        target = (2 * h - 2) * (2 * r - 1)
        assert abs(fit - target) < 0.3

    def test_partial_sums_converge(self):
        # dyadic blocks of |rho|^{2r-1} shrink geometrically for H < 1/2
        for h, r in ((0.3, 1), (0.45, 2)):
            q = np.arange(1, 2**14)
            tail = np.abs(increment_autocovariance(q, h)) ** (2 * r - 1)
            blocks = [np.sum(tail[2**k: 2**(k + 1)]) for k in range(6, 13)]
            ratios = np.array(blocks[1:]) / np.array(blocks[:-1])
            # block ratio ~ 2^{1 + (2H-2)(2r-1)} < 1 exactly when the sum converges
            expected = 2.0 ** (1 + (2 * h - 2) * (2 * r - 1))
            assert expected < 1.0
            assert np.all(ratios < 0.95)
            assert np.allclose(ratios, expected, atol=0.05)


class TestFloorSteps:
    @pytest.mark.parametrize("level, t, expected", [
        (8, 1.0, 256),
        (8, 1.0 - 1e-11, 256),  # within the relative snap of 256
        (8, 1.0 - 1e-6, 255),
        (3, 0.3, 2),
        (0, 2.5, 2),
        (4, 0.0, 0),
        (3.5, 1.0, 11),  # half levels count spatial cells 2^{-n/2}
    ])
    def test_counts_whole_steps(self, level, t, expected):
        assert floor_steps(level, t) == expected

    @staticmethod
    def _old_floor_steps(level, t):
        """floor_steps as it was, 2^level formed first; None where that
        overflows."""
        try:
            x = (2.0 ** level) * t
        except OverflowError:
            return None
        if not math.isfinite(x):
            return None
        r = round(x)
        return int(r) if abs(x - r) <= 1e-9 * max(1.0, abs(x)) else math.floor(x)

    @given(whole=st.integers(-1100, 1100), half=st.booleans(),
           t=st.floats(0.0, 1e308, allow_subnormal=True))
    def test_same_count_as_forming_2_to_the_level_first(self, whole, half, t):
        level = whole + 0.5 if half else whole
        old = self._old_floor_steps(level, t)
        assume(old is not None)
        assert floor_steps(level, t) == old

    @pytest.mark.parametrize("level, t, expected", [
        (1026, 1e-310, 0), (1025.5, 1e-310, 0), (1030, 1e-310, 1),
        (1074, 2.0**-1074, 1), (1080, 2.0**-1074, 64), (1080.5, 2.0**-1074, 90)])
    def test_levels_where_2_to_the_level_overflows(self, level, t, expected):
        # 2^1030 * 1e-310 = 1.15...; 2^6.5 = 90.5...
        assert floor_steps(level, t) == expected


class TestFbmSampler:
    def test_zero_at_time_zero(self):
        for h in (0.2, 0.5, 0.85):
            p = sample_fbm_two_sided(h, 0.01, 64, seed=1)
            assert p.values[p.half_extent] == 0.0

    def test_deterministic_given_seed(self):
        a = sample_fbm_two_sided(0.3, 0.5, 128, seed=42)
        b = sample_fbm_two_sided(0.3, 0.5, 128, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_fbm_two_sided(0.3, 0.5, 128, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_fbm_two_sided(0.3, -0.1, 16, seed=0)
        for half in (0, 2.5, True):
            with pytest.raises(ValueError, match="half_extent"):
                sample_fbm_two_sided(0.3, 0.1, half, seed=0)

    def test_bm_increment_covariance_is_identity(self):
        # H = 1/2: increments i.i.d.; empirical covariance vs identity, 3 SE
        reps, dim = 100_000, 8
        fgn = _keyed_rows(0.5, 1.0, dim, SeedRecord(11), reps)
        emp = (fgn.T @ fgn) / reps
        se = np.sqrt((1.0 + np.eye(dim)) / reps)
        assert np.all(np.abs(emp - np.eye(dim)) <= 3.2 * se + 1e-12)

    @pytest.mark.parametrize("h", [0.25, 1 / 6, 0.75])
    def test_value_covariance_matches_kernel(self, h):
        # full two-sided value covariance vs C_H on a small grid, 4 SE
        half, spacing, reps = 8, 0.25, 120_000
        inc = _keyed_rows(h, spacing, 2 * half, SeedRecord(12), reps)
        cs = np.concatenate([np.zeros((reps, 1)), np.cumsum(inc, axis=1)], axis=1)
        values = cs - cs[:, half:half + 1]
        times = (np.arange(2 * half + 1) - half) * spacing
        expected = fbm_covariance(times[:, None], times[None, :], h)
        emp = (values.T @ values) / reps
        var = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
        se = np.sqrt((var**2 + expected**2) / reps)
        assert np.all(np.abs(emp - expected) <= 4 * se + 1e-12)

    def test_unit_variance_at_time_one(self):
        # Var X_1 = 1 for any H; 10^4 replicas, 3 SE of the variance estimate
        h, spacing, half = 0.3, 2.0**-8, 2**10
        reps = 10_000
        idx = int(round(1.0 / spacing))
        vals = np.empty(reps)
        keys = SeedRecord(13).philox_keys(range(reps))
        for index, inc in sample_fgn_rows(h, spacing, 2 * half, keys, KeyedPhilox()):
            vals[index] = np.sum(inc[:, half:half + idx], axis=1)
        var = vals.var(ddof=1)
        assert abs(var - 1.0) <= 3 * np.sqrt(2.0 / reps)

    def test_check_level_grid(self):
        # only spacing 2^{-n/2} itself passes: finer, coarser and odd-level
        # neighbours are rejected with the spacing and the level named
        for level in (7, 8):
            sample_fbm_two_sided(0.3, dyadic_step(level), 64,
                                 seed=3).check_level_grid(level)
        for spacing, level in ((dyadic_step(8) / 16, 8), (dyadic_step(7) / 8, 7),
                               (2 * dyadic_step(8), 8), (dyadic_step(8), 9)):
            p = sample_fbm_two_sided(0.3, spacing, 64, seed=3)
            with pytest.raises(ValueError, match=f"is not the level-{level} step"):
                p.check_level_grid(level)


class TestEmbeddingKernel:
    @pytest.mark.parametrize("h", [0.1, 1 / 6, 0.35, 0.75])
    @pytest.mark.parametrize("n_inc", [1, 2, 3, 7, 16, 255, 256, 2**13, 2**14])
    def test_rows_match_uncached_kernel(self, n_inc, h):
        # at spacing 1 the scale is 1.0: sample_fgn and every keyed row are
        # the verbatim kernel's draw from their own record's generator
        rec = SeedRecord(40).derive("fbm", n_inc)
        new = sample_fgn(h, 1.0, n_inc, rec)
        old = _old_sample_fgn_embedding(rec.generator(), n_inc, h)
        assert new.shape == (n_inc,) and new.flags.owndata
        np.testing.assert_array_equal(new, old[0])
        rows = _keyed_rows(h, 1.0, n_inc, SeedRecord(40), 3)
        for rep, row in enumerate(rows):
            old = _old_sample_fgn_embedding(SeedRecord(40).derive(rep).generator(), n_inc, h)
            np.testing.assert_array_equal(row, old[0])

    def test_defective_spectrum_raises(self, defective_spectrum):
        # every sampler has the one embedding path, and the error names (n, H)
        keys = SeedRecord(41).philox_keys(np.arange(3))
        for n_inc in (8, 16):
            match = rf"eigenvalue .* n={n_inc}, H=0\.3;"
            with pytest.raises(EmbeddingError, match=match):
                sample_fgn(0.3, 0.1, n_inc, seed=5)
            with pytest.raises(EmbeddingError, match=match):
                sample_fbm_two_sided(0.3, 0.1, n_inc // 2, seed=5)
            with pytest.raises(EmbeddingError, match=match):
                next(sample_fgn_rows(0.3, 0.1, n_inc, keys, KeyedPhilox()))
            with pytest.raises(EmbeddingError, match=match):
                next(sample_fbm_rows(0.3, 0.1, n_inc // 2, keys, KeyedPhilox()))

    def test_cached_weights_are_read_only(self):
        weights = fgn_mod._embedding_weights(64, 0.3)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0.0
        assert fgn_mod._embedding_weights(64, 0.3) is weights


class TestBatchedRows:
    """Rows drawn in bulk equal the rows of one draw per record, bit for bit."""

    @pytest.mark.parametrize("h", [0.1, 1 / 6, 0.35])
    @pytest.mark.parametrize("n_inc", [2**k for k in range(2, 12)])
    def test_rows_match_size_one_draws(self, n_inc, h):
        rec = SeedRecord(53).derive("fbm", n_inc)
        reps = np.array([0, 3, 9, 2**32 - 1])
        (rows,) = fgn_mod._sample_fgn_rows(rec.philox_keys(reps), KeyedPhilox(),
                                           n_inc, h)
        assert rows.shape == (len(reps), n_inc)
        for rep, row in zip(reps.tolist(), rows):
            single = _old_sample_fgn_embedding(rec.derive(rep).generator(), n_inc, h)
            np.testing.assert_array_equal(row, single[0])

    @pytest.mark.parametrize("batch_bytes, half", [
        (None, 2**10),           # 7 rows per chunk at 2^11 increments
        (72 * 8 * 3, 4),         # 3 rows per chunk at 8 increments
        (1, 2),                  # one row per chunk
    ])
    def test_paths_match_across_chunks(self, monkeypatch, batch_bytes, half):
        if batch_bytes is not None:
            monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", batch_bytes)
        rec = SeedRecord(54).derive("critical-rhs", 12)
        reps = np.arange(40)
        spacing = dyadic_step(12)
        chunks = list(sample_fbm_rows(1 / 6, spacing, half,
                                      rec.philox_keys(reps, "fbm"), KeyedPhilox()))
        assert len(chunks) > 1
        assert np.concatenate([index for index, _ in chunks]).tolist() == reps.tolist()
        rows = np.vstack([rows for _, rows in chunks])
        assert rows.shape == (len(reps), 2 * half + 1)
        for rep, row in zip(reps.tolist(), rows):
            path = sample_fbm_two_sided(1 / 6, spacing, half, rec.derive(rep, "fbm"))
            np.testing.assert_array_equal(row, path.values)

    @pytest.mark.parametrize("n_inc", [1, 2, 3, 64])
    def test_one_sided_rows_match_sample_fgn_across_chunks(self, monkeypatch, n_inc):
        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 72 * n_inc * 3)
        rec = SeedRecord(57).derive("subcritical", 9)
        reps = np.arange(10)
        spacing = dyadic_step(9)
        chunks = [inc.copy() for _, inc in sample_fgn_rows(
            0.1, spacing, n_inc, rec.philox_keys(reps, "fbm"), KeyedPhilox())]
        assert len(chunks) == 4
        rows = np.vstack(chunks)
        for rep, row in zip(reps.tolist(), rows):
            expected = sample_fgn(0.1, spacing, n_inc, rec.derive(rep, "fbm"))
            assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_inc, rows", [(64, 3), (2**14, 1)])
    def test_chunks_reuse_one_workspace(self, monkeypatch, n_inc, rows):
        # one call allocates its working arrays once: every chunk is the
        # same buffer (a full chunk and the short last one alike), each
        # overwritten by the next
        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 72 * n_inc * rows)
        keys = SeedRecord(55).derive("scaling", 3, 9).philox_keys(np.arange(3 * rows + 1))
        pointers, firsts = set(), []
        for _, chunk in sample_fgn_rows(1 / 6, 2.0**-9, n_inc, keys, KeyedPhilox()):
            pointers.add(chunk.__array_interface__["data"][0])
            firsts.append(chunk[0].copy())
        assert len(firsts) == 4 and len(pointers) == 1
        assert not np.array_equal(firsts[0], firsts[1])

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_sizes_per_key_pair_each_row_with_its_index(self, monkeypatch, two_sided):
        # four sizes in shuffled key order; chunks of 4 rows of 16 increments
        # and of 1 row of 64, so the two largest sizes span several chunks;
        # every position of keys comes back once, with its own record's draw
        sizes = np.array([8, 1, 32, 2, 8, 32, 1, 8, 32, 2, 8, 32, 32, 1, 8, 2, 32, 8])
        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 72 * 16 * 4)
        rec = SeedRecord(58).derive("supercritical", 7)
        reps = np.arange(len(sizes)) * 5 + 2
        keys = rec.philox_keys(reps, "fbm")
        spacing = dyadic_step(7)
        seen, chunks_of = [], {}
        if two_sided:
            batches = sample_fbm_rows(0.35, spacing, sizes, keys, KeyedPhilox())
        else:
            batches = sample_fgn_rows(0.35, spacing, 2 * sizes, keys, KeyedPhilox())
        for index, rows in batches:
            assert len(index) == len(rows) and len(set(sizes[index].tolist())) == 1
            chunks_of[int(sizes[index[0]])] = chunks_of.get(int(sizes[index[0]]), 0) + 1
            for i, row in zip(index.tolist(), rows):
                record = rec.derive(int(reps[i]), "fbm")
                if two_sided:
                    expected = sample_fbm_two_sided(0.35, spacing, int(sizes[i]), record).values
                else:
                    expected = sample_fgn(0.35, spacing, 2 * int(sizes[i]), record)
                assert row.tobytes() == expected.tobytes(), i
                seen.append(i)
        assert sorted(seen) == list(range(len(sizes)))
        assert min(chunks_of[8], chunks_of[32]) > 1

    def test_one_key_draw_between_batches_keeps_the_rows(self, monkeypatch):
        # the iteration draws from the shared one-key stream itself; chunks of
        # 4 rows of 8 and 2 rows of 16 increments give three batches, and a
        # sample_fgn between them re-keys that stream
        monkeypatch.setattr(fgn_mod, "_BATCH_BYTES", 72 * 16 * 2)
        sizes = np.array([16, 8, 16, 16, 8, 16])
        keys = SeedRecord(61).philox_keys(np.arange(len(sizes)), "fbm")
        one = sample_fgn(0.35, 0.25, 16, seed=62)
        expected = [(index, rows.copy()) for index, rows in
                    sample_fgn_rows(0.35, 0.25, sizes, keys, KeyedPhilox())]
        got = []
        for index, rows in sample_fgn_rows(0.35, 0.25, sizes, keys, one_key()):
            got.append((index, rows.copy()))
            np.testing.assert_array_equal(sample_fgn(0.35, 0.25, 16, seed=62), one)
        assert len(got) == 3
        for (i_got, r_got), (i_exp, r_exp) in zip(got, expected):
            np.testing.assert_array_equal(i_got, i_exp)
            np.testing.assert_array_equal(r_got, r_exp)

    def test_rejects_bad_arguments(self):
        keys = SeedRecord(56).philox_keys(np.arange(2))
        for args in ((0.3, 0.0, 4), (0.3, 0.1, 0), (1.0, 0.1, 4), (0.3, 0.1, 2.5),
                     (0.3, 0.1, True), (0.3, 0.1, np.array([True, True])),
                     (0.3, 0.1, np.array([4, 0])), (0.3, 0.1, np.array([4, 4, 4]))):
            with pytest.raises(ValueError):
                next(sample_fbm_rows(*args, keys, KeyedPhilox()))
            with pytest.raises(ValueError):
                next(sample_fgn_rows(*args, keys, KeyedPhilox()))


class TestOneSidedFgn:
    @pytest.mark.parametrize("h, spacing, half", [
        (0.3, 0.5, 128), (1 / 6, 2.0**-10, 1), (0.75, 0.01, 4096),
    ])
    def test_two_sided_path_is_its_cumulative_sum(self, h, spacing, half):
        seed = SeedRecord(50).derive("fbm", half)
        inc = sample_fgn(h, spacing, 2 * half, seed)
        cs = np.concatenate([[0.0], np.cumsum(inc)])
        values = cs - cs[half]
        values[half] = 0.0
        path = sample_fbm_two_sided(h, spacing, half, seed)
        np.testing.assert_array_equal(path.values, values)

    @pytest.mark.parametrize("h", [0.1, 1 / 6, 0.35, 0.75])
    def test_autocovariance_matches_rho(self, h):
        # E[inc_i inc_j] = spacing^{2H} rho(i - j), 4 SE per entry; row r is
        # sample_fgn(h, spacing, n_inc, SeedRecord(51).derive("fbm", r))
        reps, n_inc, spacing = 20_000, 6, 0.25
        rows = _keyed_rows(h, spacing, n_inc, SeedRecord(51).derive("fbm"), reps)
        lags = np.arange(n_inc)[:, None] - np.arange(n_inc)[None, :]
        expected = spacing ** (2 * h) * increment_autocovariance(lags, h)
        emp = (rows.T @ rows) / reps
        var = spacing ** (2 * h)
        se = np.sqrt((var**2 + expected**2) / reps)
        assert np.all(np.abs(emp - expected) <= 4 * se)

    def test_empty_draw_uses_no_stream(self, monkeypatch):
        def no_draw(self, *args):
            raise AssertionError("a zero-length draw opened a generator")

        monkeypatch.setattr(SeedRecord, "generator", no_draw)
        monkeypatch.setattr(KeyedPhilox, "at", no_draw)
        inc = sample_fgn(0.3, 0.1, 0, SeedRecord(52))
        assert inc.shape == (0,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="spacing"):
            sample_fgn(0.3, 0.0, 4, seed=0)
        for n_inc in (-1, 2.5, True):
            with pytest.raises(ValueError, match="n_inc"):
                sample_fgn(0.3, 0.1, n_inc, seed=0)
        with pytest.raises(ValueError, match="Hurst"):
            sample_fgn(1.0, 0.1, 4, seed=0)


class TestBmSampler:
    def test_starts_at_zero(self):
        y = sample_bm(1.0, 2.0**-10, seed=0)
        assert y.values[0] == 0.0

    def test_deterministic(self):
        a = sample_bm(1.0, 0.01, seed=5)
        b = sample_bm(1.0, 0.01, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_bm(-1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            sample_bm(1.0, 0.0, seed=0)

    def test_terminal_variance(self):
        # Var Y_T = T; 10^4 replicas, 3 SE
        reps, horizon, spacing = 10_000, 1.0, 2.0**-6
        base = SeedRecord(20)
        finals = np.empty(reps)
        for r in range(reps):
            finals[r] = sample_bm(horizon, spacing,
                                  base.derive("replica", r)).values[-1]
        assert abs(finals.var(ddof=1) - horizon) <= 3 * horizon * np.sqrt(2.0 / reps)

    def test_increment_variance_is_spacing(self):
        y = sample_bm(4.0, 2.0**-8, seed=9)
        inc = np.diff(y.values)
        # single path, 1024 increments: variance within 5 SE
        se = np.sqrt(2.0 / inc.size)
        assert abs(inc.var() / y.spacing - 1.0) <= 5 * se


BAD_POSITIVE = [float("inf"), float("-inf"), float("nan"), 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_POSITIVE)
@pytest.mark.parametrize("call, name", [
    (lambda v: sample_bm(v, 0.25, seed=0), "horizon"),
    (lambda v: sample_bm(1.0, v, seed=0), "spacing"),
    (lambda v: sample_fgn(0.3, v, 16, seed=0), "spacing"),
    (lambda v: sample_fbm_two_sided(0.3, v, 16, seed=0), "spacing"),
], ids=["bm-horizon", "bm-spacing", "fgn-spacing", "fbm-spacing"])
def test_rejects_non_finite_or_non_positive(call, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        call(value)


class TestSerialization:
    def test_fbm_roundtrip(self, tmp_path):
        p = sample_fbm_two_sided(0.3, 0.01, 256, seed=77)
        f = tmp_path / "x.path"
        write_path(p, f)
        q = read_path(f)
        assert isinstance(q, FbmPath)
        np.testing.assert_array_equal(p.values, q.values)
        assert (q.hurst.value, q.spacing, q.half_extent) == (0.3, 0.01, 256)
        assert q.seed_record == p.seed_record

    def test_bm_roundtrip(self, tmp_path):
        y = sample_bm(2.0, 0.125, seed=3)
        f = tmp_path / "y.path"
        write_path(y, f)
        z = read_path(f)
        assert isinstance(z, BmPath)
        np.testing.assert_array_equal(y.values, z.values)
        assert z.horizon == y.horizon

    def test_same_seed_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.path", tmp_path / "b.path"
        write_path(sample_fbm_two_sided(0.4, 0.5, 32, seed=1), f1)
        write_path(sample_fbm_two_sided(0.4, 0.5, 32, seed=1), f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_export(self, tmp_path):
        p = sample_fbm_two_sided(0.3, 0.25, 8, seed=2)
        f = tmp_path / "x.csv"
        write_path_csv(p, f)
        data = np.loadtxt(f, delimiter=",", skiprows=1)
        assert data.shape == (17, 2)
        np.testing.assert_allclose(data[:, 1], p.values, rtol=0, atol=0)
        np.testing.assert_allclose(data[:, 0], p.time_grid(), rtol=0, atol=0)
