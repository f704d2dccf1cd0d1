import itertools
import tracemalloc

import numpy as np
import pytest

from radabound import rademacher
from radabound.errors import ConfigurationError, DomainError
from radabound.guard import Guard, GuardConfig, HoldoutSample
from radabound.rademacher import RademacherState, init_state

from child_process import run_in_child
from rademacher_oracle import (
    all_sign_matrix,
    exact_empirical_rademacher,
    grid_correlations,
    signs_of,
    state_of,
    update,
)


def update_path_estimate(value_matrix, sigma):
    """Feed the functions one at a time through a single-vector state."""
    state = state_of(sigma.reshape(1, -1))
    est = 0.0
    for row in value_matrix:
        est = update(state, row)
    return est


class TestInitState:
    def test_initial_shape_and_zeros(self):
        state = init_state(4, 2, rng=np.random.default_rng(11))
        assert signs_of(state).shape == (2, 4)
        assert state.query_count == 0
        assert np.all(state.running_sup == 0.0)
        assert float(state.running_sup.mean()) == 0.0

    def test_experiment_scale_dimensions(self):
        state = init_state(4000, 32, rng=np.random.default_rng(11))
        assert signs_of(state).shape == (32, 4000)

    def test_signs_are_plus_minus_one(self):
        state = init_state(50, 3, rng=np.random.default_rng(5))
        assert set(np.unique(signs_of(state))) == {-1.0, 1.0}

    def test_deterministic_from_seed(self):
        a = init_state(64, 4, rng=np.random.default_rng(99))
        b = init_state(64, 4, rng=np.random.default_rng(99))
        assert np.array_equal(signs_of(a), signs_of(b))

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ConfigurationError):
            init_state(0, 2, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            init_state(2, 0, rng=np.random.default_rng(0))

    # The draw comes in row blocks of 64 KiB of int64: 16 rows at m = 500,
    # 8192 at m = 1 and one row past m = 8192.  Each shape ends in a partial
    # block.
    @pytest.mark.parametrize("m, n_vectors", [(500, 37), (1, 9000), (2**16 + 3, 3), (7, 5)])
    def test_row_blocks_equal_one_draw(self, m, n_vectors):
        rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        for r in (rng, want_rng):
            r.integers(2**31 - 1, dtype=np.int32)  # buffers the other half
        state = init_state(m, n_vectors, rng=rng)
        bits = want_rng.integers(0, 2, size=(n_vectors, m))
        assert state.bits.dtype == np.uint64
        assert state.bits.shape == (n_vectors, -(-m // 64))
        assert np.array_equal(signs_of(state), 2.0 * bits - 1.0)
        unpacked = np.unpackbits(state.bits.view(np.uint8), axis=1, bitorder="little")
        assert not unpacked[:, m:].any()  # the tail past m is zero
        for dtype in (np.int32, np.int64):
            assert int(rng.integers(2**31 - 1, dtype=dtype)) == int(
                want_rng.integers(2**31 - 1, dtype=dtype)
            )

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 4000, 9000])
    def test_sign_vectors_nest(self, m):
        # For one seed, the l-vector signs are the first l rows of the
        # 512-vector signs, whatever the row blocks of the draw: one run at
        # the largest l can then stand for every smaller l.
        most = init_state(m, 512, rng=np.random.default_rng(7)).bits
        for n_vectors in (1, 8, 32, 128, 300):
            bits = init_state(m, n_vectors, rng=np.random.default_rng(7)).bits
            assert np.array_equal(bits, most[:n_vectors]), n_vectors

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 4000])
    @pytest.mark.parametrize("n_vectors", [1, 37])
    def test_state_of_its_signs_has_its_words(self, m, n_vectors):
        # The tests' hand-built states pack their signs as the guard's are.
        state = init_state(m, n_vectors, rng=np.random.default_rng(m * n_vectors))
        bits = state_of(signs_of(state)).bits
        assert bits.dtype == np.uint64
        assert np.array_equal(bits, state.bits)  # tail words included

    # Two rows a block at m = 4000; one row, 512 KiB, at m = 2**16 + 3.
    @pytest.mark.parametrize("m, n_vectors", [(4000, 512), (2**16 + 3, 40)])
    def test_peak_stays_near_the_signs_kept(self, m, n_vectors):
        # l·m/8 bytes of packed signs and a few int64 blocks in flight; one
        # whole int64 draw alone is 8·l·m.
        block = max(1, rademacher._SIGN_DRAW_BLOCK_BYTES // (8 * m)) * 8 * m
        tracemalloc.start()
        try:
            init_state(m, n_vectors, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_vectors * m / 8 + 3 * block


class TestUpdate:
    def test_constant_function_first_update(self):
        state = init_state(8, 4, rng=np.random.default_rng(3))
        c = 0.7
        got = update(state, np.full(8, c))
        column_sums = signs_of(state).sum(axis=1)
        expected = np.abs(c * column_sums / 8).mean()
        assert got == pytest.approx(expected, rel=1e-14)

    def test_zero_function_leaves_estimate(self):
        state = init_state(6, 3, rng=np.random.default_rng(3))
        update(state, np.random.default_rng(1).uniform(size=6))
        before = float(state.running_sup.mean())
        after = update(state, np.zeros(6))
        assert after == before

    def test_hand_computed_dot_product(self):
        # sigma = (+1, -1, +1), values = (1, 1, 0): c = (1 - 1 + 0)/3 = 0
        state = state_of(np.array([[1.0, -1.0, 1.0]]))
        assert update(state, [1.0, 1.0, 0.0]) == 0.0

    def test_raw_vs_absolute_update(self):
        sigma = np.array([[1.0, -1.0, -1.0, -1.0]])
        values = np.array([1.0, 1.0, 1.0, 1.0])  # c = -2/4 = -0.5
        closed = state_of(sigma)
        assert update(closed, values) == 0.5  # |-0.5|

    def test_length_mismatch(self):
        state = init_state(5, 2, rng=np.random.default_rng(0))
        with pytest.raises(DomainError) as excinfo:
            update(state, np.zeros(4))
        assert type(excinfo.value) is DomainError

    def test_out_of_range_values(self):
        state = init_state(5, 2, rng=np.random.default_rng(0))
        with pytest.raises(DomainError):
            update(state, np.array([0.0, 0.5, 1.2, 0.1, 0.3]))
        with pytest.raises(DomainError):
            update(state, np.array([0.0, -0.5, 0.2, 0.1, 0.3]))

    def test_monotone_over_updates(self):
        rng = np.random.default_rng(42)
        state = init_state(12, 6, rng=rng)
        prev = 0.0
        for _ in range(30):
            est = update(state, rng.uniform(size=12))
            assert est >= prev - 1e-15
            prev = est
        assert 0.0 <= prev <= 1.0
        assert state.query_count == 30

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        signs = 2.0 * rng.integers(0, 2, size=(3, 10)).astype(float) - 1.0
        values = rng.uniform(size=(5, 10))
        perm = rng.permutation(10)
        a = state_of(signs)
        b = state_of(signs[:, perm])
        for row in values:
            ea = update(a, row)
            eb = update(b, row[perm])
        assert ea == pytest.approx(eb, rel=1e-14)


class TestExactOracle:
    def test_zero_function(self):
        assert exact_empirical_rademacher(np.zeros((1, 4))) == 0.0

    def test_single_point_single_function(self):
        # m = 1, f(x) = 1: sup over {f, -f} of sigma*1 is 1 for both signs
        assert exact_empirical_rademacher([[1.0]]) == 1.0

    def test_matches_update_path_enumeration(self):
        # independent second enumeration: run the incremental update over
        # every sign vector and average
        rng = np.random.default_rng(17)
        values = rng.uniform(size=(2, 3))
        oracle = exact_empirical_rademacher(values)
        total = 0.0
        for sigma in all_sign_matrix(3):
            total += update_path_estimate(values, sigma)
        assert oracle == pytest.approx(total / 8, abs=1e-12)

    def test_refuses_large_m(self):
        with pytest.raises(DomainError):
            exact_empirical_rademacher(np.zeros((1, 21)))

    def test_rejects_bad_values(self):
        # The oracle checks values as the estimator does: NaN is out of
        # range, and strings and complex numbers are not numbers.
        for values in ([[1.5, 0.0]], [[np.nan, 0.5]], [["0.5", "1"]], [[0.5j, 1.0]]):
            with pytest.raises(DomainError):
                exact_empirical_rademacher(values)

    def test_unbiasedness_exhaustive_small(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            values = rng.uniform(size=(k, m))
            oracle = exact_empirical_rademacher(values)
            total = 0.0
            for sigma in all_sign_matrix(m):
                total += update_path_estimate(values, sigma)
            assert total / 2**m == pytest.approx(oracle, abs=1e-12)

    def test_monte_carlo_concentrates(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(size=(3, 8))
        oracle = exact_empirical_rademacher(values)
        state = init_state(8, 4000, rng=rng)
        for row in values:
            est = update(state, row)
        se = state.running_sup.std(ddof=1) / np.sqrt(signs_of(state).shape[0])
        assert abs(est - oracle) <= 4 * se


def float64_product(state, values):
    """The means and absolute correlations of ``values`` by the float64 mean
    and product against the unpacked signs."""
    values = np.asarray(values, dtype=float)
    return values.mean(axis=1), np.abs(values @ signs_of(state).T / state.m)


def chunk_rows(state):
    """Rows of each chunk of the 0/1 product."""
    return max(1, rademacher._PRODUCT_CHUNK_BYTES // state.bits.nbytes)


class TestCorrelationPaths:
    def test_zero_one_values_match_the_float64_product(self):
        # m = 63, 64 and 65 end one bit short of a word, on a word and one
        # bit into a word; k reaches past the first chunk of rows.
        for m, n_vectors in itertools.product((1, 7, 63, 64, 65, 4000), (1, 32, 64)):
            state = init_state(m, n_vectors, rng=np.random.default_rng(m + n_vectors))
            for k in (1, 3, chunk_rows(state) + 1):
                bits = np.random.default_rng(k * m).integers(0, 2, size=(k, m))
                signed_zeros = np.where(bits == 1, 1.0, -0.0)
                for values in (bits.astype(bool), bits, bits.astype(float), signed_zeros):
                    means, corr = state.correlations(values)
                    want_means, want_corr = float64_product(state, values)
                    assert means.tobytes() == want_means.tobytes(), (k, m, values.dtype)
                    assert corr.tobytes() == want_corr.tobytes(), (k, m, n_vectors)

    def test_one_fractional_entry_takes_the_float64_product(self):
        # A popcount cannot weigh 0.5 or 1/3: the whole block takes the
        # float64 product on the grid, which the integer oracle gives.
        m = 4000
        state = init_state(m, 32, rng=np.random.default_rng(2))
        for fraction in (0.5, 1 / 3):
            values = np.random.default_rng(3).integers(0, 2, size=(3, m)).astype(float)
            values[1, 17] = fraction
            means, corr = state.correlations(values)
            assert means.tobytes() == values.mean(axis=1).tobytes()
            assert corr.tobytes() == grid_correlations(state, values).tobytes()

    def test_zero_one_block_skips_the_range_scan(self, monkeypatch):
        # The 0/1 test already puts a block in [0, 1]; only a block with
        # another value reaches the range check.
        m = 4000
        state = init_state(m, 32, rng=np.random.default_rng(8))
        bits = np.random.default_rng(9).integers(0, 2, size=(3, m))
        blocks = (bits.astype(bool), bits, bits.astype(float))
        want = [state.correlations(values) for values in blocks]

        def range_scan(values):
            raise AssertionError("range scan ran")

        monkeypatch.setattr(rademacher, "_check_unit_interval", range_scan)
        for values, (want_means, want_corr) in zip(blocks, want):
            means, corr = state.correlations(values)
            assert means.tobytes() == want_means.tobytes(), values.dtype
            assert corr.tobytes() == want_corr.tobytes(), values.dtype
        fractional = bits.astype(float)
        fractional[1, 17] = 0.5
        with pytest.raises(AssertionError, match="range scan ran"):
            state.correlations(fractional)

    def test_zero_one_product_works_in_row_chunks(self):
        # At l = 512 and m = 4000 one row's q & s temporary is 252 KiB; the
        # whole 128-row block's would be 31.5 MiB.  The result and a few
        # k x l arrays stay.
        m, n_vectors, k = 4000, 512, 128
        state = init_state(m, n_vectors, rng=np.random.default_rng(4))
        values = np.random.default_rng(5).integers(0, 2, size=(k, m)).astype(bool)
        assert chunk_rows(state) == 1
        tracemalloc.start()
        try:
            state.correlations(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * k * n_vectors + 2 * rademacher._PRODUCT_CHUNK_BYTES, peak

    def test_guard_answers_alike_on_either_product(self):
        m = 4000
        bits = np.random.default_rng(7).integers(0, 2, size=(40, m)).astype(bool)
        sample = HoldoutSample(points=None, m=m)
        # Answers 18 rows, then halts on the 19th.
        config = GuardConfig(epsilon=0.06, delta=0.1, n_vectors=32, seed=3)
        guard = Guard(sample, config)
        rows = list(guard.submit_batch(bits))
        assert [row.answered for row in rows] == [True] * 18 + [False]
        # The float64 product's running suprema give the same r_tilde.
        corr = float64_product(guard.rad, bits[:19])[1]
        suprema = np.maximum.accumulate(corr, axis=0)
        assert [row.r_tilde for row in rows] == [float(s.mean()) for s in suprema]


def grid_blocks(m):
    """Fractional k x m blocks with the values where rounding to the grid
    can go wrong: grid ties, which round to even, the smallest subnormal
    and the largest float below 1, all alongside 0 and 1."""
    step = 2.0 ** -(53 - m.bit_length())
    special = [0.0, 1.0, step / 2, 3 * step / 2, 5e-324, 1 - 2.0**-53, np.nextafter(step / 2, 1)]
    rng = np.random.default_rng(m)
    yield np.resize(special, (2, m))
    yield rng.uniform(size=(3, m))
    yield np.where(rng.uniform(size=(2, m)) < 0.5, rng.uniform(size=(2, m)), 1.0)


class TestGridProduct:
    @pytest.mark.parametrize("one_word", [False, True], ids=["committed-chunk", "one-word"])
    @pytest.mark.parametrize("n_vectors", [1, 33, 512])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 4000])
    def test_fractional_values_equal_the_integer_oracle(self, monkeypatch, m, n_vectors, one_word):
        # Forced to its floor, a block is one 64-column word: every column
        # block's sums are added to the last ones.
        if one_word:
            monkeypatch.setattr(rademacher, "_GRID_CHUNK_BYTES", 1)
        state = init_state(m, n_vectors, rng=np.random.default_rng(m + n_vectors))
        for values in grid_blocks(m):
            means, corr = state.correlations(values)
            assert means.tobytes() == values.mean(axis=1).tobytes()
            assert corr.tobytes() == grid_correlations(state, values).tobytes(), values[:, :3]

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 4000])
    def test_zero_one_values_on_the_grid_equal_the_popcount(self, m):
        # On 0/1 values each grid sum is 2**g times the popcount sum, so the
        # two paths round the same quotient.
        for n_vectors in (1, 33, 512):
            state = init_state(m, n_vectors, rng=np.random.default_rng(m * n_vectors))
            bits = np.random.default_rng(m).integers(0, 2, size=(5, m)).astype(float)
            want = state.correlations(bits)[1]
            assert state._grid_correlations(bits).tobytes() == want.tobytes()

    def test_fractional_row_at_large_m_peaks_small(self):
        # l = 64, m = 250,000: unpacking the whole sign matrix to float64
        # would take 122 MiB.
        state = init_state(250_000, 64, rng=np.random.default_rng(1))
        values = np.random.default_rng(2).uniform(size=(1, 250_000))
        tracemalloc.start()
        try:
            state.correlations(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # Each child pins BLAS before numpy loads; a float64 product in
        # BLAS order would give other bits on one and two threads.
        code = (
            "import os\n"
            "for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
            "    os.environ[name] = '{threads}'\n"
            "import hashlib\n"
            "import numpy as np\n"
            "from radabound.rademacher import init_state\n"
            "digest = hashlib.sha256()\n"
            "for m, n_vectors, k in ((4000, 64, 64), (4000, 512, 16), (65_537, 64, 8)):\n"
            "    state = init_state(m, n_vectors, rng=np.random.default_rng(m + k))\n"
            "    for seed in range(4):\n"
            "        values = np.random.default_rng(seed).uniform(size=(k, m))\n"
            "        digest.update(state.correlations(values)[1].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = [run_in_child(code.format(threads=n), timeout=60).strip() for n in (1, 2)]
        assert digests[0] == digests[1]


class TestSignChecks:
    def test_immutable_after_creation(self):
        state = state_of(np.ones((2, 3)))
        with pytest.raises(ValueError):
            state.bits[0, 0] = 0
        # The constructor adopts the caller's words, not a copy of them.
        words = np.zeros((2, 1), dtype=np.uint64)
        state = RademacherState(words, 3)
        assert state.bits is words
        with pytest.raises(ValueError):
            words[0, 0] = 1
