import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from oracles import QuantileTable, lipschitz_speed, max_speed, rank_counts
from rankflow import (BurgersSolution, ConfigError, FluxFunction, Gaussian, InitRule,
                      NumericalError, SimulationConfig, Uniform,
                      empirical_cdf_at, optimal_positions, psi_grid_free, simulate)
from rankflow import engine
from rankflow.engine import FRACTIONAL_RANK, IID, MAX_STEPS, OPTIMAL, zero_based_ranks
from rankflow.stream import derive_seed, make_generator, standard_normals

BURGERS = FluxFunction.burgers()


def config(**kw):
    base = dict(n_particles=4, step=0.5, horizon=1.0, sigma=0.5, flux=BURGERS, seed=1)
    base.update(kw)
    return SimulationConfig(**base)


# -- ranks -------------------------------------------------------------------

def test_rank_counts_distinct():
    np.testing.assert_array_equal(rank_counts(np.array([3.0, 1.0, 2.0])), [3, 1, 2])


def test_rank_counts_ties_share_top_count():
    np.testing.assert_array_equal(rank_counts(np.array([0.0, 0.0])), [2, 2])


def test_rank_counts_single():
    np.testing.assert_array_equal(rank_counts(np.array([5.0])), [1])


def ranks(x):
    """The zero-based ranks of ``x``: the index ramp scattered through its order."""
    return zero_based_ranks(x, np.arange(x.size))


def test_zero_based_ranks_distinct_match_counts():
    # sizes on each side of the stable-sort and packed-word cut-overs
    for n in (50, engine._STABLE_BELOW - 1, engine._STABLE_BELOW, 1000,
              engine._PACKED_FROM, 2 * engine._PACKED_FROM):
        x = make_generator(n).random(n)
        np.testing.assert_array_equal(ranks(x), rank_counts(x) - 1)


def test_zero_based_ranks_break_ties_by_index():
    np.testing.assert_array_equal(ranks(np.zeros(4)), [0, 1, 2, 3])
    np.testing.assert_array_equal(ranks(np.array([1.0, 0.0, 1.0])), [1, 0, 2])


def tie_heavy(sizes):
    """Samples of a size from ``sizes`` drawn from at most six atoms.

    The atoms mix small integers, signed zeros and arbitrary floats, so
    exact ties (``-0.0`` against ``+0.0`` among them) are the rule; one atom
    gives an all-equal sample.
    """
    atoms = st.lists(st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.0]),
                               st.floats(-1e6, 1e6)), min_size=1, max_size=6)
    return st.builds(lambda n, values, seed: np.random.default_rng(seed).choice(values, n),
                     sizes, atoms.map(np.array), st.integers(0, 2**32 - 1))


def stable_ranks(x, table=None, out=None):
    """The stable-sort ranks of ``x``, or ``table`` gathered through them,
    into ``out`` when given, as the step kernel calls ``zero_based_ranks``."""
    ranks = np.empty(x.size, dtype=np.intp)
    ranks[np.argsort(x, kind="stable")] = np.arange(x.size)
    return ranks if table is None else np.take(table, ranks, out=out)


#: sample sizes on each side of the stable-sort and packed-word cut-overs
BOTH_SIDES = st.one_of(st.integers(1, engine._STABLE_BELOW - 1),
                       st.integers(engine._STABLE_BELOW, 4 * engine._STABLE_BELOW),
                       st.integers(engine._PACKED_FROM, 2 * engine._PACKED_FROM))


@settings(deadline=None)
@given(tie_heavy(BOTH_SIDES))
@example(np.tile([1.0, -0.0, 0.0], engine._STABLE_BELOW))
def test_zero_based_ranks_equal_stable_argsort_ranks(x):
    # from the cut-over on, the SIMD sort orders tied values arbitrarily:
    # only the tie fallback gives the stable ranks
    np.testing.assert_array_equal(ranks(x), stable_ranks(x))


def packed_sample(*values):
    """``2 * _PACKED_FROM`` values: ``values`` after random ones in [0, 1], 0 and 1 among them.

    With a span of 1 a key is ``floor(x * 2**(63-b))``, b = 12: finite
    values in [0, 1] closer than 2**-51 can share a key.
    """
    n = 2 * engine._PACKED_FROM - len(values)
    x = make_generator(3).random(n)
    x[:2] = 0.0, 1.0
    return np.concatenate([x, values])


PACKED_EDGE_CASES = pytest.mark.parametrize("x", [
    # one ulp apart, one key, the larger value at the lower index
    packed_sample(np.nextafter(0.5, 1.0), 0.5),
    # one ulp apart, one key, already in index order: the keys collide
    packed_sample(0.5, np.nextafter(0.5, 1.0)),
    packed_sample(0.0, -0.0, 0.3, -0.0),
    packed_sample(np.nan, 0.5, np.nan),
    packed_sample(np.inf, -np.inf, 0.5),
    np.full(2 * engine._PACKED_FROM, 0.25),
    # the Dirac start, signed zeros alone and infinities alone tie every value
    np.zeros(2 * engine._PACKED_FROM),
    make_generator(5).choice([-0.0, 0.0], 2 * engine._PACKED_FROM),
    np.full(2 * engine._PACKED_FROM, np.inf),
    # the span overflows: the words cannot be formed, and nothing warns
    packed_sample(-1e308, 1e308),
], ids=["one-key-reversed", "one-key-ordered", "signed-zeros", "nan", "infinities",
        "all-equal", "dirac", "only-signed-zeros", "all-inf", "span-overflows"])


@PACKED_EDGE_CASES
def test_zero_based_ranks_packed_edge_cases(x):
    np.testing.assert_array_equal(ranks(x), stable_ranks(x))


def test_all_equal_step_forms_no_words(monkeypatch):
    # the Dirac step takes the identity order: no key, no sort, a plain copy
    def forms_words(*args):
        raise AssertionError("packed words formed")

    monkeypatch.setattr(engine, "_fixed_point", forms_words)
    table = drift_like_table(2 * engine._PACKED_FROM)
    out = zero_based_ranks(np.zeros(table.size), table)
    assert out.tobytes() == table.tobytes()
    assert out.flags.writeable
    assert not np.shares_memory(out, table)


#: cut-overs (_STABLE_BELOW, _PACKED_FROM) that send every size down one path
RANKING_PATHS = {"stable": (2**62, 2**62), "simd": (0, 2**62), "packed": (0, 0)}


def on_each_path(rank):
    """``rank()`` once with every size sent down each of the three ranking paths."""
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        for path, (stable_below, packed_from) in RANKING_PATHS.items():
            patch.setattr(engine, "_STABLE_BELOW", stable_below)
            patch.setattr(engine, "_PACKED_FROM", packed_from)
            results[path] = rank()
    return results


def drift_like_table(n):
    """n distinct read-only floats with a signed zero and a NaN among them."""
    table = np.concatenate([[-0.0, np.nan], make_generator(n).standard_normal(n)])[:n]
    table.setflags(write=False)
    return table


def assert_scatter_is_gather_through_ranks(x):
    table = drift_like_table(x.size)
    before = table.tobytes()
    for path, (out, rank) in on_each_path(
            lambda: (zero_based_ranks(x, table), ranks(x))).items():
        assert rank.tobytes() == stable_ranks(x).tobytes(), path
        assert out.tobytes() == table[rank].tobytes(), path
        # the kernel adds to the result in place
        assert out.flags.writeable and not np.shares_memory(out, table), path
    assert table.tobytes() == before


@settings(deadline=None)
@given(tie_heavy(BOTH_SIDES))
@example(np.tile([1.0, -0.0, 0.0], engine._STABLE_BELOW))
def test_drift_scattered_through_the_order_equals_gather_through_ranks(x):
    assert_scatter_is_gather_through_ranks(x)


@PACKED_EDGE_CASES
def test_drift_scatter_packed_edge_cases(x):
    assert_scatter_is_gather_through_ranks(x)


@settings(deadline=None)
@given(tie_heavy(st.integers(2, 300)), st.integers(0, 2**32 - 1))
@example(np.tile([1.0, -0.0, 0.0], engine._STABLE_BELOW), 0)
def test_estimates_are_bitwise_invariant_under_permutation(x, seed):
    # the estimators sort with the unstable default sort: the order it gives
    # -0.0 and +0.0 depends on the input order, but neither estimate does
    def cdf(y):
        return BurgersSolution(np.sqrt(0.2)).cdf(1.0, y)

    points = np.concatenate([x, [-0.0, 0.0, 0.5]])
    estimates = {
        (np.float64(psi_grid_free(y, cdf)).tobytes(), empirical_cdf_at(y, points).tobytes())
        for y in (x, x[::-1], np.random.default_rng(seed).permutation(x))}
    assert len(estimates) == 1


IID_GAUSS = InitRule(IID, Gaussian(0.0, 1.0))

#: two steps per draw block: blocks hold steps (0, 1), (2, 3), (4, 5), (6,)
TWO_ROWS = engine._DRAW_BLOCK // 3 + 1
#: one step per draw: the kernel scatters the drift table itself, scales
#: it by the step in place and draws after it ranks
ONE_ROW = 70_000


@pytest.mark.parametrize("n, init, step, horizon, n_full", [
    # 6 full steps, and the partial step opens the fourth block
    (TWO_ROWS, InitRule(), 0.25, 1.6, 6), (TWO_ROWS, IID_GAUSS, 0.25, 1.6, 6),
    # 5 full steps, and the partial step shares the third block with a full one
    (TWO_ROWS, InitRule(), 0.25, 1.4, 5), (TWO_ROWS, IID_GAUSS, 0.25, 1.4, 5),
    # 6 full steps fill three blocks, and there is no partial step
    (TWO_ROWS, InitRule(), 0.25, 1.5, 6), (TWO_ROWS, IID_GAUSS, 0.25, 1.5, 6),
    # 3 full steps and a partial one, each drawn alone, in two buffers in turn
    (ONE_ROW, IID_GAUSS, 0.3, 1.0, 3),
], ids=["dirac", "iid", "dirac-partial-step-ends-a-block", "iid-partial-step-ends-a-block",
        "dirac-no-partial-step", "iid-no-partial-step", "one-row-iid-partial-step"])
def test_simulate_equals_chain_of_euler_steps(n, init, step, horizon, n_full):
    assert engine._DRAW_BLOCK // TWO_ROWS == 2 and engine._DRAW_BLOCK // ONE_ROW == 0
    cfg = config(n_particles=n, step=step, horizon=horizon, sigma=0.4, init=init, seed=8)
    steps = [cfg.step] * n_full
    last = cfg.horizon - n_full * cfg.step
    if last > 1e-9:
        steps.append(last)
    x = init.positions(n, make_generator(derive_seed(cfg.seed, 0)))
    noise = standard_normals(make_generator(derive_seed(cfg.seed, 1)), (len(steps), n))
    drift = engine._drift_table(cfg.flux, n, cfg.scheme)
    for dt, z in zip(steps, noise):
        # the Euler recursion, in the step kernel's order of operations
        x = drift[stable_ranks(x)] * dt + x + z * (cfg.sigma * np.sqrt(dt))
    assert simulate(cfg).positions.tobytes() == x.tobytes()


@pytest.mark.parametrize("n", [TWO_ROWS, ONE_ROW], ids=["two-rows", "one-row"])
def test_kernel_never_writes_its_input(n):
    # the steps write over each other's buffers, never over the caller's
    start = make_generator(1).random(n)
    before = start.tobytes()
    drift = engine._drift_table(BURGERS, n, "rank")
    for x in engine._advance(start, drift, 0.4, 0.25, 5, 0.1, make_generator(2)):
        assert not np.shares_memory(x, start)
    assert start.tobytes() == before


@pytest.mark.parametrize("init", [InitRule(), IID_GAUSS], ids=["dirac", "iid"])
def test_packed_ranks_keep_simulate_bitwise(init, monkeypatch):
    # tests/test_golden.py pins small runs only; this run ranks with packed words
    cfg = config(n_particles=2 * engine._PACKED_FROM, step=0.05, horizon=0.5, sigma=0.4,
                 init=init, seed=21)
    packed = simulate(cfg).positions
    monkeypatch.setattr(engine, "zero_based_ranks", stable_ranks)
    assert simulate(cfg).positions.tobytes() == packed.tobytes()


# -- single steps ------------------------------------------------------------

def test_euler_step_two_particles_no_noise():
    # coefficients for n=2 are [1.25, 0.75] at zero-based ranks [0, 1]
    law = Uniform(-0.5, 1.5)
    assert optimal_positions(law, 2).tolist() == [0.0, 1.0]
    cfg = config(n_particles=2, step=1.0, horizon=1.0, sigma=0.0, init=InitRule(OPTIMAL, law))
    out = simulate(cfg)
    np.testing.assert_allclose(out.positions, [1.25, 1.75], atol=1e-15)


def test_euler_step_tied_start_fans_out():
    # all tied: stable tie-break hands rank q to particle q, so one step of
    # length dt produces the full coefficient fan (1 - (2q-1)/(2n)) * dt
    n, dt = 8, 0.25
    cfg = config(n_particles=n, step=dt, horizon=dt, sigma=0.0)
    assert optimal_positions(cfg.init.distribution, n).tolist() == [0.0] * n
    out = simulate(cfg)
    q = np.arange(n)
    np.testing.assert_allclose(out.positions, (1.0 - (2.0 * q - 1.0) / (2.0 * n)) * dt,
                               atol=1e-15)


def test_euler_step_linear_flux_translates():
    c = 0.7
    flux = FluxFunction.polynomial((0.0, c))
    start = [-1.0, 0.3, 2.0]
    law = QuantileTable(tuple(start), (1.0 / 3.0,) * 3)
    assert optimal_positions(law, 3).tolist() == start
    cfg = config(n_particles=3, step=0.5, horizon=0.5, sigma=0.0, flux=flux,
                 init=InitRule(OPTIMAL, law))
    out = simulate(cfg)
    np.testing.assert_allclose(out.positions, np.array(start) + c * 0.5, atol=1e-15)


# -- full simulations --------------------------------------------------------

def test_simulate_linear_flux_unit_translation():
    flux = FluxFunction.polynomial((0.0, 1.0))
    for h in (0.25, 0.3):  # 0.3 exercises the final partial step
        cfg = config(n_particles=5, step=h, horizon=1.0, sigma=0.0, flux=flux)
        final = simulate(cfg)
        np.testing.assert_allclose(final.positions, 1.0, atol=1e-12)


def test_simulate_deterministic_given_seed():
    cfg = config(n_particles=20, sigma=0.8, seed=123)
    a = simulate(cfg).positions
    b = simulate(cfg).positions
    assert np.array_equal(a, b)


def test_simulate_sigma_zero_ignores_seed():
    a = simulate(config(sigma=0.0, seed=1)).positions
    b = simulate(config(sigma=0.0, seed=999)).positions
    assert np.array_equal(a, b)


def test_simulate_partial_final_step_times():
    times = []
    cfg = config(n_particles=2, step=0.3, horizon=1.0)
    simulate(cfg, snapshot=lambda t, x: times.append(t))
    np.testing.assert_allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


@pytest.mark.parametrize("snapshot", [None, lambda t, x: None], ids=["bare", "snapshot"])
def test_overflowing_run_raises_numerical_error(snapshot):
    # the drift table overflows to inf and nan; a snapshot sees the positions
    # without judging them, so it does not change the error
    cfg = config(flux=FluxFunction.polynomial((0.0, 1e308, 1e308)))
    with pytest.raises(NumericalError, match="positions overflowed"):
        simulate(cfg, snapshot=snapshot)


def test_increment_stream_independent_of_init_rule():
    # with a linear flux the drift is rank-free, so the displacement from the
    # initial positions must be identical for both placement rules
    flux = FluxFunction.polynomial((0.0, 0.5))
    law = Uniform(-1.0, 1.0)
    out = {}
    for rule in (OPTIMAL, IID):
        cfg = config(n_particles=6, sigma=0.4, flux=flux, seed=55,
                     init=InitRule(rule, law))
        start = {}
        final = simulate(cfg, snapshot=lambda t, x: start.setdefault(0, x))
        out[rule] = final.positions - start[0]
    # identical increments; only rounding against different offsets remains
    np.testing.assert_allclose(out[OPTIMAL], out[IID], atol=1e-12)


# -- structural properties ---------------------------------------------------

def _random_config(rng):
    n = int(rng.integers(2, 30))
    steps = int(rng.integers(4, 11))
    horizon = float(rng.uniform(0.5, 2.0))
    flux = BURGERS if rng.random() < 0.5 else FluxFunction.quadratic()
    scheme = "rank" if rng.random() < 0.5 else FRACTIONAL_RANK
    init = InitRule(IID, Uniform(-1.0, 1.0)) if rng.random() < 0.5 else \
        InitRule(OPTIMAL, Gaussian(0.0, 1.0))
    return SimulationConfig(n_particles=n, step=horizon / steps, horizon=horizon,
                            sigma=float(rng.uniform(0.1, 2.0)), flux=flux,
                            scheme=scheme, init=init,
                            seed=int(rng.integers(2**63)))


def test_reordering_never_exceeds_original_increments():
    # sorted snapshots are closer than the raw ones, for powers 1 and 2
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(25):
        cfg = _random_config(rng)
        snaps = []
        simulate(cfg, snapshot=lambda t, x: snaps.append(x))
        for _ in range(45):
            i, j = sorted(rng.choice(len(snaps), size=2, replace=False))
            xs, xt = snaps[i], snaps[j]
            ys, yt = np.sort(xs), np.sort(xt)
            for rho in (1.0, 2.0):
                lhs = np.sum(np.abs(yt - ys) ** rho)
                rhs = np.sum(np.abs(xt - xs) ** rho)
                assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
            checked += 1
    assert checked >= 1000


def test_drift_displacement_bounded():
    # without noise, one step moves at most (sup|speed| + Lip/n) * dt
    rng = np.random.default_rng(7)
    for _ in range(50):
        cfg = _random_config(rng)
        cfg = SimulationConfig(**{**cfg.__dict__, "sigma": 0.0})
        bound = (max_speed(cfg.flux) + lipschitz_speed(cfg.flux) / cfg.n_particles)
        snaps = []
        simulate(cfg, snapshot=lambda t, x: snaps.append(x))
        for before, after in zip(snaps, snaps[1:]):
            assert np.max(np.abs(after - before)) <= bound * cfg.step * (1 + 1e-12)


def test_second_moment_stays_below_explicit_bound():
    # Dirac start, Burgers, T=1, sigma^2=0.2: explicit second-moment bound
    # 3^(rho-1) * (2 E|X_0|^rho + E|sigma W_T|^rho + (sup|speed| * T)^rho)
    rho, sigma2, horizon, max_speed = 2.0, 0.2, 1.0, 1.0
    bound = 3.0 ** (rho - 1.0) * (
        0.0
        + gamma_fn((rho + 1.0) / 2.0) / np.sqrt(np.pi) * (2.0 * sigma2 * horizon) ** (rho / 2.0)
        + (max_speed * horizon) ** rho
    )
    assert bound == pytest.approx(3.6, abs=1e-12)
    for seed in range(100):
        cfg = config(n_particles=400, step=0.02, horizon=horizon,
                     sigma=float(np.sqrt(sigma2)), seed=derive_seed(31, seed))
        final = simulate(cfg)
        assert np.mean(final.positions**2) < bound


@pytest.mark.parametrize("n", [10, 100])
def test_scheme_proximity_exact(n):
    # with coupled noise the two drift variants stay exactly T/(2n) apart
    horizon = 1.0
    base = dict(n_particles=n, step=0.125, horizon=horizon,
                sigma=float(np.sqrt(0.2)), flux=BURGERS, seed=17)
    rank_final = simulate(SimulationConfig(scheme="rank", **base)).positions
    frac_final = simulate(SimulationConfig(scheme=FRACTIONAL_RANK, **base)).positions
    gap = rank_final - frac_final
    np.testing.assert_allclose(gap, horizon / (2.0 * n), atol=1e-12)
    assert np.max(np.abs(gap)) <= horizon / (2.0 * n) + 1e-12


# -- validation --------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        config(n_particles=0)
    with pytest.raises(ConfigError):
        config(step=0.0)
    with pytest.raises(ConfigError):
        config(step=2.0)  # step > horizon
    with pytest.raises(ConfigError):
        config(horizon=np.inf)
    config(step=1.0 / MAX_STEPS)  # at the step-count ceiling: accepted, not run
    with pytest.raises(ConfigError):
        config(step=1e-300)
    with pytest.raises(ConfigError):
        config(sigma=-1.0)
    with pytest.raises(ConfigError):
        config(scheme="bogus")
    with pytest.raises(ConfigError):
        config(seed=-1)


def test_overflow_at_packed_size_raises_numerical_error():
    # the ensemble does not judge positions: simulate's own check does, also
    # where the overflowing positions reach the packed-word ranking
    cfg = config(n_particles=2 * engine._PACKED_FROM,
                 flux=FluxFunction.polynomial((0.0, 1e308, 1e308)))
    with pytest.raises(NumericalError, match="positions overflowed"):
        simulate(cfg)
