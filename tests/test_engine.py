import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from oracles import (QuantileTable, drift_table_unblocked, lipschitz_speed, max_speed,
                     rank_counts, trajectory)
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
    ranks = np.empty(x.size, dtype=np.intp)
    ranks[zero_based_ranks(x)] = np.arange(x.size)
    return ranks


def test_zero_based_ranks_distinct_match_counts():
    # small sizes, and sizes on each side of the packed-word cut-over
    for n in (50, 127, 128, 1000, engine._PACKED_FROM, 2 * engine._PACKED_FROM):
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


def stable_order(x):
    """The stable sort order of ``x``, as the step kernel calls ``zero_based_ranks``."""
    return np.argsort(x, kind="stable")


def stable_ranks(x):
    """The stable-sort ranks of ``x``."""
    ranks = np.empty(x.size, dtype=np.intp)
    ranks[stable_order(x)] = np.arange(x.size)
    return ranks


#: small sample sizes, and sizes on each side of the packed-word cut-over
BOTH_SIDES = st.one_of(st.integers(1, 127), st.integers(128, 512),
                       st.integers(engine._PACKED_FROM, 2 * engine._PACKED_FROM))


@settings(deadline=None)
@given(tie_heavy(BOTH_SIDES))
@example(np.tile([1.0, -0.0, 0.0], 128))
def test_zero_based_ranks_equal_stable_argsort_ranks(x):
    # the SIMD sort orders tied values arbitrarily: only the tie fallback
    # gives the stable ranks
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
    # the Dirac step takes the identity order: no key, no sort, no array
    def forms_words(*args):
        raise AssertionError("packed words formed")

    monkeypatch.setattr(engine, "_fixed_point", forms_words)
    assert zero_based_ranks(np.zeros(2 * engine._PACKED_FROM)) == slice(None)


#: cut-overs (_PACKED_FROM) that send every size down one path
RANKING_PATHS = {"simd": 2**62, "packed": 0}


def on_each_path(rank):
    """``rank()`` once with every size sent down each of the two ranking paths."""
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        for path, packed_from in RANKING_PATHS.items():
            patch.setattr(engine, "_PACKED_FROM", packed_from)
            results[path] = rank()
    return results


def kernel_step(x):
    """One step of the step kernel from ``x``: h = 0.25, sigma = 0.4."""
    return engine._advance(x, BURGERS, "rank", 0.4, 0.25, 1, 0.0, make_generator(2))


def euler_step(x):
    """The same step by the Euler recursion, gathering the drift through the stable ranks."""
    drift = drift_table_unblocked(BURGERS, x.size, "rank")
    z = standard_normals(make_generator(2), (1, x.size))[0]
    return drift[stable_ranks(x)] * 0.25 + x + z * (0.4 * np.sqrt(0.25))


def assert_scatter_is_gather_through_ranks(x):
    # on every ranking path the kernel adds coefficient q to particle order[q]
    before = x.tobytes()
    for path, (moved, rank) in on_each_path(lambda: (kernel_step(x), ranks(x))).items():
        assert rank.tobytes() == stable_ranks(x).tobytes(), path
        assert moved.tobytes() == euler_step(x).tobytes(), path
    assert x.tobytes() == before


@settings(deadline=None)
@given(tie_heavy(BOTH_SIDES))
@example(np.tile([1.0, -0.0, 0.0], 128))
def test_drift_scattered_through_the_order_equals_gather_through_ranks(x):
    assert_scatter_is_gather_through_ranks(x)


@PACKED_EDGE_CASES
def test_drift_scatter_packed_edge_cases(x):
    assert_scatter_is_gather_through_ranks(x)


@settings(deadline=None)
@given(tie_heavy(st.integers(2, 300)), st.integers(0, 2**32 - 1))
@example(np.tile([1.0, -0.0, 0.0], 128), 0)
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
#: one step per draw: the kernel computes the drift coefficients a block of
#: ranks at a time, and draws after it ranks
ONE_ROW = 70_000
#: a cubic flux, whose rank coefficients are differences of the flux
CUBIC = FluxFunction.polynomial((0.2, -0.4, 0.1, 1.0 / 3.0))


@pytest.mark.parametrize("n, init, step, horizon, n_full, flux, scheme", [
    # 6 full steps fill three blocks, and the partial step is a block of its own
    (TWO_ROWS, InitRule(), 0.25, 1.6, 6, BURGERS, "rank"),
    (TWO_ROWS, IID_GAUSS, 0.25, 1.6, 6, BURGERS, "rank"),
    # 5 full steps end in a one-step block, and the partial step follows in its own
    (TWO_ROWS, InitRule(), 0.25, 1.4, 5, BURGERS, "rank"),
    (TWO_ROWS, IID_GAUSS, 0.25, 1.4, 5, BURGERS, "rank"),
    # 6 full steps fill three blocks, and there is no partial step
    (TWO_ROWS, InitRule(), 0.25, 1.5, 6, BURGERS, "rank"),
    (TWO_ROWS, IID_GAUSS, 0.25, 1.5, 6, BURGERS, "rank"),
    # 3 full steps and a partial one, each drawn alone into the one buffer
    (ONE_ROW, IID_GAUSS, 0.3, 1.0, 3, BURGERS, "rank"),
    (ONE_ROW, IID_GAUSS, 0.3, 1.0, 3, CUBIC, "rank"),
    (ONE_ROW, IID_GAUSS, 0.3, 1.0, 3, BURGERS, FRACTIONAL_RANK),
    (ONE_ROW, IID_GAUSS, 0.3, 1.0, 3, CUBIC, FRACTIONAL_RANK),
    # every value ties at the first step: the identity order, block by block
    (ONE_ROW, InitRule(), 0.3, 1.0, 3, BURGERS, "rank"),
], ids=["dirac", "iid", "dirac-full-steps-end-a-short-block",
        "iid-full-steps-end-a-short-block",
        "dirac-no-partial-step", "iid-no-partial-step", "one-row-iid-partial-step",
        "one-row-cubic-partial-step", "one-row-frac-partial-step",
        "one-row-cubic-frac-partial-step", "one-row-dirac-partial-step"])
def test_simulate_equals_chain_of_euler_steps(n, init, step, horizon, n_full, flux, scheme):
    assert engine._DRAW_BLOCK // TWO_ROWS == 2 and engine._DRAW_BLOCK // ONE_ROW == 0
    assert ONE_ROW % engine._BLOCK  # the last block of ranks is a short one
    cfg = config(n_particles=n, step=step, horizon=horizon, sigma=0.4, init=init, seed=8,
                 flux=flux, scheme=scheme)
    steps = [cfg.step] * n_full
    last = cfg.horizon - n_full * cfg.step
    if last > 1e-9:
        steps.append(last)
    x = init.positions(n, cfg.seed)
    noise = standard_normals(make_generator(derive_seed(cfg.seed, 1)), (len(steps), n))
    drift = drift_table_unblocked(cfg.flux, n, cfg.scheme)
    for dt, z in zip(steps, noise):
        # the Euler recursion, in the step kernel's order of operations
        x = drift[stable_ranks(x)] * dt + x + z * (cfg.sigma * np.sqrt(dt))
    assert simulate(cfg).positions.tobytes() == x.tobytes()


@pytest.mark.parametrize("flux", [BURGERS, CUBIC], ids=["burgers", "cubic"])
@pytest.mark.parametrize("scheme", ["rank", FRACTIONAL_RANK])
def test_drift_blocks_equal_the_whole_table(flux, scheme):
    # a block of ranks gets the bits of the same ranks of the whole table
    n = ONE_ROW + 1
    table = drift_table_unblocked(flux, n, scheme)
    assert engine._drift(flux, n, scheme, 0, n).tobytes() == table.tobytes()
    for start in (0, 1, 8191, 8192, n - 5):
        stop = min(start + 8192, n)
        assert engine._drift(flux, n, scheme, start, stop).tobytes() == table[start:stop].tobytes()


@pytest.mark.parametrize("n", [TWO_ROWS, ONE_ROW], ids=["two-rows", "one-row"])
def test_kernel_never_writes_its_input(n):
    # the kernel steps its own copy, never the caller's array
    start = make_generator(1).random(n)
    before = start.tobytes()
    x = engine._advance(start, BURGERS, "rank", 0.4, 0.25, 5, 0.1, make_generator(2))
    assert not np.shares_memory(x, start)
    assert start.tobytes() == before


def test_one_row_step_holds_two_particle_arrays_and_its_blocks():
    # the positions and the sort words while a step ranks, the positions and
    # the increments after; the start goes once the kernel has its copy
    n = ONE_ROW
    tracemalloc.start()
    try:
        engine._advance(make_generator(1).random(n), BURGERS, "rank", 0.4, 0.25, 3, 0.1,
                        make_generator(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * n * 8 < peak < 2 * n * 8 + 2 * engine._BLOCK * 8 + 16384


@pytest.mark.parametrize("n, step, horizon, draws", [
    (TWO_ROWS, 0.25, 1.4, 4),  # blocks (0, 1), (2, 3), (4,), then the partial step
    (TWO_ROWS, 0.25, 1.6, 4),
    (TWO_ROWS, 0.25, 1.5, 3),
    (4, 0.002, 1.0, 1),  # 500 steps in one block
    (ONE_ROW, 0.3, 1.0, 4),  # one draw per step
], ids=["two-rows-odd", "two-rows-even", "two-rows-no-partial-step", "one-block",
        "one-row"])
def test_draw_schedule(n, step, horizon, draws, monkeypatch):
    # a draw block holds steps of one length: the full steps, then the partial one
    calls = []
    monkeypatch.setattr(engine, "standard_normals",
                        lambda rng, size: calls.append(size) or standard_normals(rng, size))
    simulate(config(n_particles=n, step=step, horizon=horizon))
    n_full = int(np.floor(horizon / step + engine._STEP_SLACK))
    rows = max(1, engine._DRAW_BLOCK // n)
    assert len(calls) == -(-n_full // rows) + (horizon - n_full * step > 1e-9) == draws


@pytest.mark.parametrize("init", [InitRule(), IID_GAUSS], ids=["optimal", "iid"])
def test_generators_of_a_run(init, monkeypatch):
    # the increment stream, and under the i.i.d. rule the initial one
    seeds = []
    monkeypatch.setattr(engine, "make_generator",
                        lambda seed: seeds.append(seed) or make_generator(seed))
    simulate(config(init=init, seed=9))
    expected = [derive_seed(9, 1)] + ([derive_seed(9, 0)] if init.rule == IID else [])
    assert sorted(seeds) == sorted(expected)


def test_run_leaves_no_array_behind():
    # a size no other test runs: nothing of the run outlives it
    cfg = config(n_particles=2**15 - 3, step=0.25, horizon=1.1, init=IID_GAUSS)
    simulate(cfg)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulate(replace(cfg, n_particles=2**15))
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 4096


@pytest.mark.parametrize("init", [InitRule(), IID_GAUSS], ids=["dirac", "iid"])
def test_packed_ranks_keep_simulate_bitwise(init, monkeypatch):
    # tests/test_golden.py pins small runs only; this run ranks with packed words
    cfg = config(n_particles=2 * engine._PACKED_FROM, step=0.05, horizon=0.5, sigma=0.4,
                 init=init, seed=21)
    packed = simulate(cfg).positions
    monkeypatch.setattr(engine, "zero_based_ranks", stable_order)
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


def test_trajectory_steps_to_simulate():
    # one-step kernel calls on the run's own stream end where simulate's one call does
    for horizon, steps in ((1.0, 4), (1.2, 4)):  # 0.3 does not divide 1.0, it divides 1.2
        cfg = config(n_particles=5, step=0.3, horizon=horizon)
        path = trajectory(cfg)
        assert len(path) == steps + 1
        assert path[-1].tobytes() == simulate(cfg).positions.tobytes()


def test_overflowing_run_raises_numerical_error():
    # the drift table overflows to inf and nan
    cfg = config(flux=FluxFunction.polynomial((0.0, 1e308, 1e308)))
    with pytest.raises(NumericalError, match="positions overflowed"):
        simulate(cfg)


def test_increment_stream_independent_of_init_rule():
    # with a linear flux the drift is rank-free, so the displacement from the
    # initial positions must be identical for both placement rules
    flux = FluxFunction.polynomial((0.0, 0.5))
    law = Uniform(-1.0, 1.0)
    out = {}
    for rule in (OPTIMAL, IID):
        cfg = config(n_particles=6, sigma=0.4, flux=flux, seed=55,
                     init=InitRule(rule, law))
        path = trajectory(cfg)
        out[rule] = path[-1] - path[0]
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
        snaps = trajectory(cfg)
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
        snaps = trajectory(cfg)
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
    # a real is checked as a float and named with its value: the horizon before the
    # step against it; a string, None or an int beyond the float range is refused
    for field, value, interval in (
            ("horizon", -1.0, "(0, inf)"), ("horizon", np.nan, "(0, inf)"),
            ("horizon", 10**400, "(0, inf)"), ("step", "0.5", "(0, inf)"),
            ("step", np.nan, "(0, inf)"), ("sigma", -1.0, "[0, inf)"),
            ("sigma", None, "(-inf, inf)"), ("sigma", 10**400, "(-inf, inf)")):
        message = f"{field} must be a real number in {interval}, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config(**{field: value})
    # a float32 step and sigma are stored as the floats they equal, and run with their bits
    narrow = config(n_particles=8, step=np.float32(0.3), sigma=np.float32(0.4))
    wide = config(n_particles=8, step=float(np.float32(0.3)), sigma=float(np.float32(0.4)))
    assert (type(narrow.step), type(narrow.sigma), narrow) == (float, float, wide)
    np.testing.assert_array_equal(simulate(narrow).positions, simulate(wide).positions)
    with pytest.raises(ConfigError):
        config(scheme="bogus")
    with pytest.raises(ConfigError):
        config(seed=-1)
    # a count is an integer: a fraction is refused, never truncated or rounded
    for field, value in (("n_particles", 3.7), ("n_particles", 100.5), ("seed", 1.5)):
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer in \[\d, "
                                              rf"2\*\*64\), got {value}$"):
            config(**{field: value})
    accepted = config(n_particles=np.int64(5), seed=np.uint64(2**64 - 1))
    assert (type(accepted.n_particles), accepted.n_particles) == (int, 5)
    assert (type(accepted.seed), accepted.seed) == (int, 2**64 - 1)


def test_overflow_at_packed_size_raises_numerical_error():
    # the ensemble does not judge positions: simulate's own check does, also
    # where the overflowing positions reach the packed-word ranking
    cfg = config(n_particles=2 * engine._PACKED_FROM,
                 flux=FluxFunction.polynomial((0.0, 1e308, 1e308)))
    with pytest.raises(NumericalError, match="positions overflowed"):
        simulate(cfg)
