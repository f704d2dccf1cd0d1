import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radabound import bounds, rademacher
from radabound.bounds import (
    _TOLERANCE_CAP,
    BoundMethod,
    est_error_bernstein,
    est_error_mcdiarmid,
    est_error_mclt,
    min_passing_slack,
    normal_sf,
    overfit_bound,
    overfit_bound_bernstein_single,
    overfit_bound_mcdiarmid_combined,
    overfit_bound_mclt,
    overfit_bound_two_term,
)
from radabound.cli import cmd_compare_bounds
from radabound.errors import DomainError
from radabound.seeding import MAX_COUNT

from child_process import run_in_child

mp.mp.dps = 40


def dense_grid_two_term(m, l, slack, n=10**6):
    """Independent brute-force oracle: dense grid over the open split interval."""
    a = np.linspace(0.0, slack, n + 2)[1:-1]
    vals = np.exp(-2.0 * m * (slack - a) ** 2) + np.exp(
        -3.0 * m * l * a * a / (30.0 + 8.0 * l * a)
    )
    return min(1.0, float(vals.min()))  # outputs are probabilities, clamped


def dense_grid_mcdiarmid_combined(m, l, slack, n=10**6):
    e1 = np.linspace(0.0, slack, n + 2)[1:-1]
    e2 = (slack - e1) / 2.0
    vals = np.exp(-2.0 * m * e1 * e1) + np.exp(-2.0 * m * l * e2 * e2 / (l + 4.0))
    return min(1.0, float(vals.min()))  # outputs are probabilities, clamped


class TestEstErrorBounds:
    def test_bernstein_frozen_value(self):
        # exp(-6*1000*8*1e-4 / (15 + 0.64)) = exp(-4.8/15.64)
        assert est_error_bernstein(1000, 8, 0.01) == pytest.approx(
            0.73572021819659630259, rel=1e-12
        )

    def test_bernstein_decreasing_in_eps(self):
        vals = [est_error_bernstein(1000, 8, e) for e in (0.01, 0.05, 0.2, 0.5, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-100

    def test_bernstein_decreasing_in_l(self):
        assert est_error_bernstein(1000, 16, 0.01) < est_error_bernstein(1000, 8, 0.01)

    def test_mcdiarmid_frozen_value(self):
        assert est_error_mcdiarmid(1000, 8, 0.01) == pytest.approx(
            0.87517331904294745399, rel=1e-12
        )

    def test_mcdiarmid_l_limit_monotone(self):
        vals = [est_error_mcdiarmid(1000, l, 0.01) for l in (1, 4, 16, 64, 1024)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # exponent magnitude approaches 2 m eps^2 from below
        assert vals[-1] > math.exp(-2 * 1000 * 0.01**2)

    def test_eps_domain_errors(self):
        for fn in (
            lambda e: est_error_bernstein(10, 2, e),
            lambda e: est_error_mcdiarmid(10, 2, e),
        ):
            for bad in (0.0, -0.1, "0.1", None, True):
                with pytest.raises(DomainError):
                    fn(bad)

    def test_observed_tail_below_each_bound(self):
        # The estimate r_tilde of l sign vectors over one fixed sample of k
        # fair-coin 0/1 queries strays from R, the mean supremum, by more
        # than eps on either side less often than each bound allows.  The
        # estimate runs through the guard's estimator; 20,000 draws give
        # each tail to about +-0.0011.
        k, m, l, reps, eps = 50, 200, 2, 20_000, 0.04
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2, size=(k, m)).astype(float)

        def suprema(n_vectors):
            # Each sign vector's running supremum after the k queries.
            state = rademacher.init_state(m, n_vectors, rng=rng)
            for corr in state.correlations(values)[1]:
                state.commit(state.preview_corr(corr)[0])
            return state.running_sup

        r = np.mean([suprema(40_000).mean() for _ in range(5)])  # 200,000 vectors
        r_tilde = suprema(reps * l).reshape(reps, l).mean(axis=1)
        above = np.mean(r_tilde - r > eps)
        below = np.mean(r - r_tilde > eps)
        for bound in (est_error_mclt, est_error_bernstein, est_error_mcdiarmid):
            assert max(above, below) < bound(m, l, eps), bound.__name__
        # Control: the same data breaks MCLT with its variance divided by 16.
        assert above > normal_sf(4 * 2 * eps * math.sqrt(l * m / 5))


class TestNormalCdf:
    """The standard normal distribution through ``normal_sf``, the
    package's one implementation of it."""

    def test_half_at_zero(self):
        assert normal_sf(0.0) == 0.5

    def test_frozen_value(self):
        assert normal_sf(1.96) == pytest.approx(0.024997895148220484, rel=1e-12)

    def test_against_mpmath_oracle(self):
        for x in np.linspace(-8.0, 8.0, 401):
            exact = float(mp.ncdf(-mp.mpf(x)))
            assert abs(normal_sf(float(x)) - exact) <= 1e-7
            # the implementation is actually far tighter than the contract
            assert normal_sf(float(x)) == pytest.approx(exact, rel=1e-13, abs=1e-300)

    def test_sf_relative_accuracy_in_tail(self):
        for z in (1.0, 3.0, 5.0, 8.0, 12.0, 20.0):
            exact = float(1 - mp.ncdf(mp.mpf(z)))
            assert normal_sf(z) == pytest.approx(exact, rel=1e-12)

    def test_monotone_on_grid(self):
        xs = np.linspace(-8, 8, 100_001)
        vals = np.array([normal_sf(float(x)) for x in xs])
        assert np.all(np.diff(vals) <= 0.0)
        assert vals[0] <= 1.0 and vals[-1] >= 0.0

    def test_nonfinite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, "0.1", None, True):
            with pytest.raises(DomainError):
                normal_sf(bad)

    def test_ints_past_float_range_are_finite(self):
        assert normal_sf(10**400) == 0.0
        assert normal_sf(-(10**400)) == 1.0


class TestOverfitBounds:
    def test_slack_zero_conventions(self):
        assert overfit_bound_two_term(100, 8, 0.0) == 1.0
        assert overfit_bound_bernstein_single(100, 8, 0.0) == 1.0
        assert overfit_bound_mcdiarmid_combined(100, 8, 0.0) == 1.0
        assert overfit_bound_mclt(100, 8, 0.0) == 0.5

    def test_bernstein_single_frozen_value(self):
        assert overfit_bound_bernstein_single(4000, 32, 0.1) == pytest.approx(
            4.2735218297442921369e-14, rel=1e-12
        )

    def test_bernstein_single_monotone(self):
        assert overfit_bound_bernstein_single(
            4000, 32, 0.12
        ) < overfit_bound_bernstein_single(4000, 32, 0.1)
        assert overfit_bound_bernstein_single(
            8000, 32, 0.1
        ) < overfit_bound_bernstein_single(4000, 32, 0.1)

    def test_mclt_frozen_value(self):
        assert overfit_bound_mclt(4000, 32, 0.05) == pytest.approx(
            0.000017253446683120285401, rel=1e-12
        )

    def test_mclt_vs_mpmath_grid(self):
        for m in (250, 1000, 4000):
            for l in (2, 8, 32):
                for slack in (0.01, 0.03, 0.1):
                    scale = mp.sqrt(4 * l * m / (l + 4 * mp.sqrt(l) + 20))
                    exact = float(1 - mp.ncdf(mp.mpf(slack) * scale))
                    assert overfit_bound_mclt(m, l, slack) == pytest.approx(
                        exact, rel=1e-9
                    )

    def test_two_term_matches_dense_grid(self):
        for m, l, slack in ((4000, 32, 0.1), (1000, 8, 0.05), (250, 4, 0.2)):
            oracle = dense_grid_two_term(m, l, slack)
            assert overfit_bound_two_term(m, l, slack) == pytest.approx(
                oracle, rel=1e-9
            )

    def test_two_term_never_exceeds_feasible_point(self):
        m, l, slack = 4000, 32, 0.1
        value = overfit_bound_two_term(m, l, slack)
        for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
            a = frac * slack
            feasible = math.exp(-2 * m * (slack - a) ** 2) + math.exp(
                -3 * m * l * a * a / (30 + 8 * l * a)
            )
            assert value <= feasible + 1e-15

    def test_mcdiarmid_combined_matches_dense_grid(self):
        for m, l, slack in ((4000, 32, 0.1), (1000, 8, 0.05)):
            oracle = dense_grid_mcdiarmid_combined(m, l, slack)
            assert overfit_bound_mcdiarmid_combined(m, l, slack) == pytest.approx(
                oracle, rel=1e-9
            )

    def test_all_bounds_in_unit_interval(self):
        for m in (1, 10, 1000):
            for l in (1, 8):
                for slack in (0.0, 1e-6, 0.01, 0.5, 2.0):
                    for method in BoundMethod:
                        v = overfit_bound(method, m, l, slack)
                        assert 0.0 <= v <= 1.0

    def test_negative_slack_rejected(self):
        with pytest.raises(DomainError):
            overfit_bound_mclt(100, 8, -0.01)

    @pytest.mark.parametrize(
        "bound",
        [
            overfit_bound_two_term,
            overfit_bound_bernstein_single,
            overfit_bound_mclt,
            overfit_bound_mcdiarmid_combined,
            est_error_mclt,
            lambda m, l, slack: overfit_bound("mclt", m, l, slack),
        ],
    )
    @pytest.mark.parametrize("slack", ["0.1", None, True])
    def test_slack_that_is_not_a_real_rejected(self, bound, slack):
        # A bool is not read as 1, nor a string compared as a number.
        with pytest.raises(DomainError, match="slack must be finite"):
            bound(100, 4, slack)

    def test_numpy_and_int_tolerances_are_valid(self):
        assert overfit_bound_mclt(100, 4, np.float64(0.1)) == overfit_bound_mclt(100, 4, 0.1)
        assert overfit_bound_mclt(100, 4, np.float32(0.5)) == overfit_bound_mclt(100, 4, 0.5)
        assert overfit_bound_mclt(100, 4, 1) == overfit_bound_mclt(100, 4, 1.0)
        assert est_error_bernstein(100, 4, np.int64(1)) == est_error_bernstein(100, 4, 1.0)

    @pytest.mark.parametrize(
        "slack", ["np.float32(0.05)", "np.float16(0.05)", "Fraction(1, 20)", "np.int8(0)"]
    )
    @pytest.mark.parametrize("method", [method.value for method in BoundMethod])
    def test_any_real_slack_is_read_as_a_python_float(self, method, slack):
        # The bound at a numpy or Fraction slack is the bound at float(slack).
        # A float32 or float16 slack once kept the split bounds' golden-section
        # loop from ending, so each case runs in a child with a timeout.
        out = run_in_child(
            "from fractions import Fraction\n"
            "import numpy as np\n"
            "from radabound.bounds import overfit_bound\n"
            f"x = {slack}\n"
            f"typed, plain = (overfit_bound({method!r}, 4000, 32, s) for s in (x, float(x)))\n"
            "print(type(typed).__name__, typed == plain)"
        )
        assert out.split() == ["float", "True"]

    def test_unknown_method_rejected(self):
        names = "bernstein_two_term, bernstein_single, mclt, mcdiarmid_combined"
        for method in ("bogus", None, 3, ["mclt"]):
            with pytest.raises(DomainError, match=f"one of {names}, got"):
                overfit_bound(method, 100, 8, 0.1)
        # The value string names its method.
        assert overfit_bound("mclt", 100, 8, 0.1) == overfit_bound_mclt(100, 8, 0.1)

    def test_key_error_inside_a_bound_is_not_masked(self, monkeypatch):
        def failing(m, n_vectors, slack):
            raise KeyError("inside the bound")

        monkeypatch.setitem(bounds._METHOD_DISPATCH, BoundMethod.MCLT, failing)
        with pytest.raises(KeyError, match="inside the bound"):
            overfit_bound(BoundMethod.MCLT, 100, 8, 0.1)


ALL_BOUNDS = [
    est_error_bernstein,
    est_error_mcdiarmid,
    est_error_mclt,
    overfit_bound_two_term,
    overfit_bound_bernstein_single,
    overfit_bound_mclt,
    overfit_bound_mcdiarmid_combined,
]


@pytest.mark.parametrize("bound", ALL_BOUNDS)
def test_infinite_tolerance_rejected(bound):
    # An infinite eps or slack is outside every bound's domain, and every
    # bound says so the same way.  So is a sample size that is not an integer.
    with pytest.raises(DomainError, match="must be finite"):
        bound(1000, 8, math.inf)
    with pytest.raises(DomainError, match="sample size must be an int"):
        bound(1000.5, 8, 0.1)


@pytest.mark.parametrize("bound", ALL_BOUNDS)
def test_missing_sign_vector_count_rejected(bound):
    with pytest.raises(DomainError, match="sign-vector count must be an int"):
        bound(1000, None, 0.1)


@pytest.mark.parametrize("tolerance", [1e154, 1e200, 1e308])
@pytest.mark.parametrize("bound", ALL_BOUNDS)
def test_huge_finite_tolerance_is_a_probability(bound, tolerance):
    # The squared tolerance overflows here; numpy warnings are errors.
    for m, l in ((10, 2), (1, 1), (MAX_COUNT, MAX_COUNT)):
        assert 0.0 <= bound(m, l, tolerance) <= 1.0


@pytest.mark.parametrize("bound", ALL_BOUNDS)
def test_tolerance_cap_changes_no_value(bound):
    # Every bound is non-increasing in its tolerance, m and l, so a 0.0 at
    # the loosest counts just below the cap is 0.0 everywhere above it.
    assert bound(1, 1, math.nextafter(_TOLERANCE_CAP, 0.0)) == 0.0


# float.hex of the two split-minimised bounds, recorded from the scalar
# (one math.exp call per grid point) minimiser before it was vectorised.
# Columns: m, l, slack, bernstein_two_term, mcdiarmid_combined.  The first
# rows have slack near 0, where both bounds clamp to 1; the rest reach
# slack 0.2, the largest epsilon the experiments use.
GOLDEN_SPLIT_BOUNDS = [
    (50, 8, 1e-12, '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (100, 1, 1e-09, '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (1000, 8, 1e-10, '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (4000, 32, 1e-08, '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (4000, 32, 0.01, '0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    (50, 64, 0.2, '0x1.4fbf77f3b8aefp-1', '0x1.0000000000000p+0'),
    (100, 64, 0.19999999, '0x1.bf29863d6f805p-3', '0x1.84c3241bc8c73p-1'),
    (250, 32, 0.125, '0x1.1444afa67b4c0p-2', '0x1.9453c51e089afp-1'),
    (250, 128, 0.2, '0x1.0151be6b93e78p-8', '0x1.af2985664da42p-3'),
    (500, 16, 0.15, '0x1.cfc6c24b64e0cp-6', '0x1.b30a1af067f8cp-3'),
    (500, 64, 0.0999, '0x1.27889b6bf58e6p-4', '0x1.3f509acd198b2p-1'),
    (1000, 32, 0.0999, '0x1.45268630f478cp-7', '0x1.e569bc0e78f2ep-3'),
    (1000, 32, 0.0625, '0x1.c55278c55130ep-3', '0x1.9453c51e089afp-1'),
    (1000, 64, 0.2, '0x1.239d293f01921p-31', '0x1.821cc4a125f0ap-12'),
    (1000, 128, 0.075, '0x1.2273138c77fc3p-6', '0x1.12e849db5e1dep-1'),
    (2000, 16, 0.055, '0x1.43cf2bcb4977bp-3', '0x1.1f5f75a1d6338p-1'),
    (2000, 32, 0.055, '0x1.03fc2ee4276d8p-4', '0x1.0bb6a621d696cp-1'),
    (2000, 64, 0.04, '0x1.67b4a289b29f7p-3', '0x1.c348dbca15201p-1'),
    (4000, 32, 0.025, '0x1.c8da0d1376bb3p-2', '0x1.fb757f4df39f2p-1'),
    (4000, 32, 0.05, '0x1.a1aa79fe06d60p-8', '0x1.e37222a0dc7bfp-3'),
    (4000, 32, 0.035, '0x1.c86e2b31eee98p-4', '0x1.4f4dbcf816072p-1'),
    (4000, 64, 0.0333, '0x1.0d214c4f8c9e9p-4', '0x1.64e700f0f20b6p-1'),
    (4000, 64, 0.0999999, '0x1.831af4a81d843p-38', '0x1.821e7464ac819p-12'),
    (4000, 64, 0.2, '0x1.bb24d042eea3bp-127', '0x1.9375442e04aeap-49'),
    (4000, 8, 0.06, '0x1.fe588390b0e3ap-6', '0x1.460309e7c3b4ap-3'),
    (10000, 32, 0.03, '0x1.38809585fbf06p-7', '0x1.281691e719d8bp-2'),
    (10000, 128, 0.04, '0x1.9f2ccb3268bf6p-21', '0x1.d61abf6480346p-5'),
    (10000, 64, 0.0175, '0x1.5e2a01d5bdd62p-3', '0x1.ce37753a73c14p-1'),
    (12000, 500, 0.02, '0x1.d239757c765e4p-9', '0x1.426653cef526ep-1'),
    (12000, 32, 0.1, '0x1.fc54f269772f2p-92', '0x1.49633f8cbed82p-35'),
]


def reference_minimize_split(objective, upper):
    """The scalar minimiser: 1024 grid points, then golden section, all
    with math.exp.  Kept as the reference the vectorised grid must equal."""
    n = 1024
    h = upper / (n + 1)
    best_i, best_v = 1, math.inf
    for i in range(1, n + 1):
        v = objective(i * h)
        if v < best_v:
            best_i, best_v = i, v
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = (best_i - 1) * h, (best_i + 1) * h
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > 1e-10 * upper:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    return min(1.0, best_v, fc, fd, objective(0.5 * (a + b)))


def reference_two_term(m, l, slack):
    return reference_minimize_split(
        lambda a: math.exp(-2.0 * m * (slack - a) ** 2)
        + math.exp(-3.0 * m * l * a * a / (30.0 + 8.0 * l * a)),
        slack,
    )


def reference_mcdiarmid_combined(m, l, slack):
    def objective(e1):
        e2 = (slack - e1) / 2.0
        return math.exp(-2.0 * m * e1 * e1) + math.exp(-2.0 * m * l * e2 * e2 / (l + 4.0))

    return reference_minimize_split(objective, slack)


class TestSplitBoundsExact:
    @pytest.mark.parametrize("m,l,slack,two_term,mcdiarmid", GOLDEN_SPLIT_BOUNDS)
    def test_golden_values(self, m, l, slack, two_term, mcdiarmid):
        assert overfit_bound_two_term(m, l, slack).hex() == two_term
        assert overfit_bound_mcdiarmid_combined(m, l, slack).hex() == mcdiarmid

    def test_equal_to_scalar_reference(self):
        rng = np.random.default_rng(2024)
        for m in (50, 1000, 4000):
            for l in (8, 32, 64):
                for slack in rng.uniform(0.0, 0.2, size=8).tolist():
                    assert overfit_bound_two_term(m, l, slack) == reference_two_term(
                        m, l, slack
                    ), (m, l, slack)
                    assert overfit_bound_mcdiarmid_combined(
                        m, l, slack
                    ) == reference_mcdiarmid_combined(m, l, slack), (m, l, slack)

    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_returns_python_float(self, method):
        for m, l, slack in ((100, 8, 0.0), (100, 8, 1e-9), (4000, 32, 0.05)):
            assert type(overfit_bound(method, m, l, slack)) is float


class TestTwoStepBounds:
    def test_est_error_frozen_value(self):
        # 1 - Phi(2 * 0.01 * sqrt(8000/5)) = 1 - Phi(0.8)
        assert est_error_mclt(1000, 8, 0.01) == pytest.approx(
            0.21185539858339668558, rel=1e-12
        )

    def test_slack_zero(self):
        assert est_error_mclt(100, 8, 0.0) == 0.5

    def test_numpy_counts_multiply_as_python_ints(self):
        # l * m = 2**70 overflows int64.
        value = est_error_mclt(np.int64(2**40), np.int64(2**30), 1e-12)
        assert value == est_error_mclt(2**40, 2**30, 1e-12)
        assert value == pytest.approx(0.48774152209513055, rel=1e-12)

    def test_decreasing_in_m_and_l(self):
        assert est_error_mclt(1000, 16, 0.01) < est_error_mclt(1000, 8, 0.01)


# The (method, m, l, delta) of every guard config in use: the CLI goldens,
# test_4 and the README's example, and the three benchmark workloads.
CONFIGS_IN_USE = [
    *((method, 300, 8, 0.1) for method in BoundMethod),
    (BoundMethod.MCLT, 4000, 32, 0.1),
    (BoundMethod.BERNSTEIN_TWO_TERM, 4000, 32, 0.1),
    (BoundMethod.MCDIARMID_COMBINED, 4000, 64, 0.1),
]


class TestMinPassingSlack:
    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(list(BoundMethod)),
        m=st.integers(1, 10**5),
        l=st.integers(1, 512),
        delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_passes_where_its_predecessor_fails(self, method, m, l, delta):
        threshold = delta * (1.0 - delta)
        s_star = min_passing_slack(method, m, l, threshold)
        assert 0.0 < s_star <= _TOLERANCE_CAP
        assert overfit_bound(method, m, l, s_star) <= threshold
        assert overfit_bound(method, m, l, math.nextafter(s_star, 0.0)) > threshold

    @pytest.mark.parametrize("method,m,l,delta", CONFIGS_IN_USE)
    def test_equals_the_bound_rule_near_s_star(self, method, m, l, delta):
        # Every float within 2000 ulps of s*: slack >= s* exactly where the
        # bound at that slack is within the threshold.
        threshold = delta * (1.0 - delta)
        s_star = min_passing_slack(method, m, l, threshold)
        bits = np.float64(s_star).view(np.int64) + np.arange(-2000, 2001)
        for slack in bits.view(np.float64).tolist():
            passes = overfit_bound(method, m, l, slack) <= threshold
            assert passes == (slack >= s_star), slack.hex()

    @pytest.mark.parametrize(
        "method,expected",
        [(BoundMethod.MCLT, 0.0162), (BoundMethod.BERNSTEIN_SINGLE, 0.0269),
         (BoundMethod.BERNSTEIN_TWO_TERM, 0.0363),
         (BoundMethod.MCDIARMID_COMBINED, 0.0607)],
    )
    def test_paper_scale_values(self, method, expected):
        assert min_passing_slack(method, 4000, 32, 0.1 * 0.9) == pytest.approx(
            expected, abs=5e-5
        )

    @pytest.mark.parametrize("threshold", [-0.01, 0.5, 1.0, math.nan, True, "0.09"])
    def test_threshold_outside_the_bracket_rejected(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            min_passing_slack(BoundMethod.MCLT, 100, 8, threshold)


def compare_table(capsys, m, eps, l_values):
    """The rows of ``cmd_compare_bounds``'s CSV on stdout, each read back
    as (l, mcdiarmid, bernstein, mclt)."""
    assert cmd_compare_bounds(m, eps, l_values) == 0
    _, *lines = capsys.readouterr().out.splitlines()
    return [(int(l), *map(float, values)) for l, *values in (s.split(",") for s in lines)]


class TestCompareTable:
    def test_default_scale_ordering(self, capsys):
        rows = compare_table(capsys, 1000, 0.01, [2, 4, 8, 16, 32, 64])
        assert len(rows) == 6
        for _, mcd, bern, mclt in rows:
            assert mclt <= bern <= mcd
        # numpy integers are counts too
        counts = np.array([2, 4, 8, 16, 32, 64])
        assert compare_table(capsys, np.int64(1000), 0.01, counts) == rows

    def test_single_row_range(self, capsys):
        ((l, mcd, bern, mclt),) = compare_table(capsys, 1000, 0.01, [1])
        assert l == 1
        for v in (mcd, bern, mclt):
            assert 0.0 < v <= 1.0

    def test_doubling_l_decreases_every_column(self, capsys):
        rows = compare_table(capsys, 1000, 0.01, [2, 4, 8, 16, 32, 64])
        for prev, cur in zip(rows, rows[1:]):
            assert cur[1] < prev[1]
            assert cur[2] < prev[2]
            assert cur[3] < prev[3]

    def test_csv_format(self, capsys):
        cmd_compare_bounds(1000, 0.01, [2, 4])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "l,mcdiarmid,bernstein,mclt"
        assert len(lines) == 3
        assert lines[1].startswith("2,")

    def test_invalid_l_rejected(self, capsys):
        # zero, and counts that are not integers: a float, a bool, a string,
        # None and an object that is no number at all
        for bad in (0, 1.5, True, "8", None, object()):
            with pytest.raises(DomainError):
                cmd_compare_bounds(1000, 0.01, [bad])
            assert capsys.readouterr().out == ""


def single_bound_excesses(split_bound, scale=1.0):
    """The points of the dominance grid where ``split_bound`` is below 1,
    and those among them where ``overfit_bound_bernstein_single`` exceeds
    ``scale`` times it."""
    checked, excesses = [], []
    for m in (10, 100, 1000, 4000, 100000):
        for l in (1, 2, 8, 32, 128, 512, 4096):
            for slack in np.linspace(0.0, 1.0, 41)[1:].tolist():
                split = split_bound(m, l, slack)
                if split < 1.0:
                    checked.append((m, l, slack))
                    if overfit_bound_bernstein_single(m, l, slack) > scale * split:
                        excesses.append((m, l, slack))
    return checked, excesses


@pytest.mark.parametrize(
    "split_bound", [overfit_bound_two_term, overfit_bound_mcdiarmid_combined]
)
def test_bernstein_single_at_most_each_split_bound(split_bound):
    # A guard on a pointwise larger bound halts at the same row or earlier,
    # so it answers a prefix of what the bernstein_single guard answers.
    checked, excesses = single_bound_excesses(split_bound)
    assert len(checked) > 1000
    assert excesses == []
    # The check can fail: half of either split bound is below
    # bernstein_single at some points of the grid.
    assert single_bound_excesses(split_bound, scale=0.5)[1]
