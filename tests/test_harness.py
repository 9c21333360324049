import json
import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import rankflow.cli as cli
import rankflow.harness as harness
from rankflow import (BurgersSolution, ConfigError, FluxFunction, Gaussian, GridSpec,
                      InitRule, NumericalError, SimulationConfig, StudyRow, StudySpec,
                      run_study, strong_error_point, weak_error_point)
from rankflow import engine
from rankflow.engine import IID
from rankflow.metrics import phi_grid, psi_grid_free
from rankflow.stream import derive_seed, make_generator, standard_normals

BURGERS = FluxFunction.burgers()
SIGMA = float(np.sqrt(0.2))


def burgers_config(**kw):
    base = dict(n_particles=16, step=0.25, horizon=1.0, sigma=SIGMA, flux=BURGERS,
                seed=42)
    base.update(kw)
    return SimulationConfig(**base)


def small_grid(k=50, t=1.0):
    sol = BurgersSolution(SIGMA)
    return GridSpec.from_quantile(lambda u: sol.quantile(t, u), k)


def one_row(kind, config, runs, **kw):
    """A one-row spec that runs ``config`` itself: paired seeds keep its seed."""
    return StudySpec(kind, config, "n", (config.n_particles,), runs, paired_seeds=True, **kw)


def one_row_point(kind, config, runs, **kw):
    """The estimate and half-width of the one row of ``one_row(kind, config, runs)``."""
    (row,) = run_study(one_row(kind, config, runs, **kw))
    return row.estimation, row.precision


# -- strong error point --------------------------------------------------------

def test_strong_point_sigma_zero_degenerate(monkeypatch):
    # all runs are identical without noise, so the interval collapses; the
    # closed form needs sigma > 0, so pin a fixed reference CDF instead
    reference = _GaussianReference(1.0, speed=0.25)
    monkeypatch.setattr(harness, "get_reference", lambda config: reference)
    cfg = burgers_config(sigma=0.0)
    est, prec = one_row_point("strong", cfg, 5)
    assert prec == 0.0
    single = psi_grid_free(harness.simulate(cfg).positions, lambda x: reference.cdf(1.0, x))
    assert est == pytest.approx(single, abs=1e-15)


def test_strong_point_reproducible_by_hand():
    # replay the documented stream and apply the update and the trapezoid
    # estimator with plain Python arithmetic
    cfg = burgers_config(n_particles=2, step=1.0, horizon=1.0, seed=7)
    sol = BurgersSolution(SIGMA)
    coeffs = [1.25, 0.75]  # zero-based coefficients for n = 2
    psis = []
    for r in range(2):
        run_seed = derive_seed(cfg.seed, r)
        xi = standard_normals(make_generator(derive_seed(run_seed, 1)), 2)
        x = sorted(coeffs[i] * 1.0 + SIGMA * float(xi[i]) for i in range(2))
        psis.append(0.5 * (x[1] - x[0])
                    * (abs(sol.cdf(1.0, x[1]) - 0.5) + abs(sol.cdf(1.0, x[0]) - 0.5)))
    mean = (psis[0] + psis[1]) / 2.0
    spread = 1.96 * np.sqrt(((psis[0] - mean) ** 2 + (psis[1] - mean) ** 2) / 1.0 / 2.0)
    est, prec = one_row_point("strong", cfg, 2)
    assert est == pytest.approx(mean, abs=1e-14)
    assert prec == pytest.approx(spread, abs=1e-14)


# -- weak error point ----------------------------------------------------------

def test_weak_point_identical_batches_zero_precision(monkeypatch):
    monkeypatch.setattr(harness, "get_reference", lambda config: _GaussianReference(1.0))
    cfg = burgers_config(sigma=0.0)
    est, prec = one_row_point("weak", cfg, 4, batches=2, grid_k=50)
    assert prec == 0.0
    assert est >= 0.0


def test_weak_never_far_above_strong():
    # the mean profile is at least as close as the average distance
    cfg = burgers_config(n_particles=100, step=0.05)
    strong_est, strong_prec = one_row_point("strong", cfg, 40)
    weak_est, weak_prec = one_row_point("weak", cfg, 40, batches=4, grid_k=500)
    assert weak_est <= strong_est + strong_prec + weak_prec


# -- row reductions of a stream of results --------------------------------------

def test_strong_row_reduces_its_runs_and_leaves_the_next_row():
    # four runs' estimates, then the next row's first result
    spec = StudySpec("strong", burgers_config(), "n", (4, 8), 4)
    results = iter([0.1, 0.2, 0.4, 0.7, "next row"])
    est, prec = strong_error_point(spec, results)
    mean = (0.1 + 0.2 + 0.4 + 0.7) / 4
    variance = sum((v - mean) ** 2 for v in (0.1, 0.2, 0.4, 0.7)) / 3
    assert est == pytest.approx(mean, abs=1e-15)
    assert prec == pytest.approx(1.96 * np.sqrt(variance / 4), abs=1e-15)
    assert next(results) == "next row"


def test_weak_row_reduces_its_runs_and_leaves_the_next_row():
    # four runs' CDF vectors in two batches of two, then the next row's first
    spec = StudySpec("weak", burgers_config(), "n", (4, 8), 4, batches=2, grid_k=8)
    vectors = [np.sort(make_generator(seed).random(8)) for seed in range(4)]
    results = iter(vectors + ["next row"])
    est, prec = weak_error_point(spec, results)
    first = phi_grid((vectors[0] + vectors[1]) / 2, spec.grid)
    second = phi_grid((vectors[2] + vectors[3]) / 2, spec.grid)
    assert est == pytest.approx(phi_grid(sum(vectors) / 4, spec.grid), abs=1e-15)
    # two batch values: 1.96 * sqrt(((a - b)**2 / 2) / 2) = 0.98 * |a - b|
    assert prec == pytest.approx(0.98 * abs(first - second), abs=1e-15)
    assert next(results) == "next row"


# -- study driver ----------------------------------------------------------------

def test_run_study_single_row_has_no_ratio():
    spec = StudySpec("strong", burgers_config(), "n", (8,), 3)
    table = run_study(spec)
    assert len(table) == 1
    assert table[0].ratio is None


def test_run_study_ratio_is_previous_over_current():
    spec = StudySpec("strong", burgers_config(seed=3), "n", (4, 8, 16), 4)
    rows = run_study(spec)
    assert rows[1].ratio == pytest.approx(rows[0].estimation / rows[1].estimation)
    assert rows[2].ratio == pytest.approx(rows[1].estimation / rows[2].estimation)


def test_run_study_sweep_h():
    spec = StudySpec("strong", burgers_config(), "h", (0.5, 0.25), 3)
    rows = run_study(spec)
    assert [r.parameter for r in rows] == [0.5, 0.25]


def test_run_study_deterministic_and_thread_invariant():
    spec = StudySpec("weak", burgers_config(n_particles=12), "n", (6, 12), 6,
                     batches=3, grid_k=40)
    serial = run_study(spec)
    again = run_study(spec)
    pooled = run_study(replace(spec, threads=2))
    assert serial == again
    assert serial == pooled


def test_run_study_paired_seeds_share_noise():
    spec = StudySpec("strong", burgers_config(), "n", (8, 8), 4, paired_seeds=True)
    rows = run_study(spec)
    assert rows[0].estimation == rows[1].estimation
    unpaired = run_study(StudySpec("strong", burgers_config(), "n", (8, 8), 4))
    assert unpaired[0].estimation != unpaired[1].estimation


def test_reference_fetched_once_per_spec(monkeypatch):
    # the spec holds the reference; its rows never fetch it again
    calls = []
    fetch = harness.get_reference

    def counted(config):
        calls.append(config)
        return fetch(config)

    monkeypatch.setattr(harness, "get_reference", counted)
    run_study(StudySpec("strong", burgers_config(), "n", (4, 8), 2))
    assert len(calls) == 1
    run_study(StudySpec("weak", burgers_config(), "n", (4, 8), 4, batches=2, grid_k=8))
    assert len(calls) == 2


class PoolLog(list):
    """The ``max_workers`` of each pool built, and the most futures that
    were ever submitted and not yet read."""

    in_flight = most_in_flight = 0


@pytest.fixture
def fake_pool(monkeypatch):
    """Every pool runs its runs in-process as they are submitted; returns a PoolLog."""
    built = PoolLog()

    class FakeFuture:
        def __init__(self, value):
            self.value = value

        def result(self):
            built.in_flight -= 1
            return self.value

        def cancel(self):
            return False

    class FakePool:
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            built.in_flight += 1
            built.most_in_flight = max(built.most_in_flight, built.in_flight)
            return FakeFuture(fn(*args))

    monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness, "_interruptible", lambda run, run_index: run(run_index))
    return built


def pin_cores(monkeypatch, cores):
    """The process may run on ``cores`` only, as the harness sees it."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: cores, raising=False)


def test_pool_has_no_more_workers_than_runs(fake_pool, monkeypatch):
    # --threads 8 --runs 2 starts two processes, on a host with more cores
    pin_cores(monkeypatch, set(range(8)))
    spec = StudySpec("strong", burgers_config(), "n", (4,), 2, threads=8)
    assert spec.workers == 2
    assert run_study(spec) == run_study(replace(spec, threads=1))
    assert fake_pool == [2]


@pytest.mark.parametrize("cores, pools", [({0, 1}, [2]), ({0}, [])], ids=["two", "one"])
def test_pool_has_no_more_workers_than_cores(fake_pool, monkeypatch, cores, pools):
    # --threads 100000 --runs 4 would fork 100000 processes without the bound;
    # on one core no pool is built at all
    pin_cores(monkeypatch, cores)
    spec = StudySpec("strong", burgers_config(), "n", (4,), 4, threads=100000)
    assert run_study(spec) == run_study(replace(spec, threads=1))
    assert fake_pool == pools


def test_runs_in_flight_never_exceed_the_window(fake_pool, monkeypatch):
    # three rows of 10**5 runs on two workers: one pool for the study holds
    # eight runs at a time, across row boundaries, and the results still
    # come in (row, run index) order
    pin_cores(monkeypatch, {0, 1})
    monkeypatch.setattr(harness, "_run", lambda config, statistic, r: (config.n_particles, r))
    runs = 10**5
    spec = StudySpec("strong", burgers_config(), "n", (4, 8, 16), runs, threads=2)
    streamed = []
    for result in harness._map_runs(spec):
        streamed.append(result)
        if result == (4, runs - 1):  # the first row's last run: seven of the next queued
            assert fake_pool.in_flight == 7
    assert streamed == [(n, r) for n in (4, 8, 16) for r in range(runs)]
    assert fake_pool == [2]
    assert fake_pool.most_in_flight == 2 * harness._IN_FLIGHT_PER_WORKER == 8
    assert fake_pool.in_flight == 0


def test_study_spec_validation():
    cfg = burgers_config()
    with pytest.raises(ConfigError):
        StudySpec("bogus", cfg, "n", (4,), 3)
    with pytest.raises(ConfigError):
        StudySpec("strong", cfg, "x", (4,), 3)
    with pytest.raises(ConfigError):
        StudySpec("strong", cfg, "n", (), 3)
    with pytest.raises(ConfigError):
        StudySpec("strong", cfg, "n", (4,), 1)
    with pytest.raises(ConfigError):
        StudySpec("strong", cfg, "n", (4, 1), 3)  # one particle has no strong estimate
    with pytest.raises(ConfigError):
        StudySpec("strong", burgers_config(n_particles=1), "h", (0.5,), 3)
    with pytest.raises(ConfigError):
        StudySpec("weak", cfg, "n", (4,), 5, batches=2)  # 2 does not divide 5
    with pytest.raises(ConfigError):
        StudySpec("weak", cfg, "n", (4,), 4, batches=None)
    with pytest.raises(ConfigError):
        StudySpec("weak", cfg, "n", (4,), 4, batches=1)
    with pytest.raises(ConfigError, match="no exact reference solution for this flux: "
                                          "only the Burgers flux has one"):
        StudySpec("strong", burgers_config(flux=FluxFunction.quadratic()), "n", (4,), 3)
    # every row is checked, not only the base: a weak row of no particles,
    # and a row whose step exceeds the horizon
    with pytest.raises(ConfigError, match=r"sweep value 0: n_particles must be an integer "
                                          r"in \[1, 2\*\*64\), got 0"):
        StudySpec("weak", cfg, "n", (4, 0), 4, batches=2, grid_k=8)
    with pytest.raises(ConfigError, match=r"sweep value 2: need 0 < step <= horizon"):
        StudySpec("strong", cfg, "h", (0.5, 2), 3)
    # a real sweep value is checked as the step it sets: no string, no int beyond the
    # float range, each named with its value
    for h in (10**400, "0.5", np.nan):
        message = f"sweep value {h}: step must be a real number in (0, inf), got {h}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            StudySpec("strong", cfg, "h", (0.5, h), 3)
    # a count is an integer: a fraction is refused before anything runs, never truncated
    for message, kind, values, kw in [
            ("runs must be an integer in [2, 2**64), got 3.5", "strong", (4,), dict(runs=3.5)),
            ("batches must be an integer in [2, 2**64), got 2.0", "weak", (4,),
             dict(runs=4, batches=2.0)),
            ("grid_k must be an integer in [2, 2**64), got 8.9", "weak", (4,),
             dict(runs=4, batches=2, grid_k=8.9)),
            ("sweep value 8.9: n_particles must be an integer in [1, 2**64), got 8.9", "strong",
             (4, 8.9), dict(runs=3))]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            StudySpec(kind, cfg, "n", values, **kw)
    spec = StudySpec("weak", cfg, "n", (np.int64(4),), np.int64(4), batches=np.int64(2),
                     grid_k=np.int64(8))
    assert [type(v) for v in (spec.runs, spec.batches, spec.grid_k, spec.configs[0].n_particles)
            ] == [int] * 4


def traced_peak(work) -> int:
    """Peak bytes that tracemalloc sees while ``work()`` runs."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_model_bounds_the_measured_peaks():
    # the bytes per particle and the fixed bytes of a run bound one strong
    # run (step kernel and estimator);
    # the bytes per cell bound one weak grid's exact-quantile bisection
    statistic = partial(psi_grid_free, exact_cdf=partial(BurgersSolution(SIGMA).cdf, 1.0))
    peaks = {}
    for n in (20_000, 2**15, 33_000, 70_000):
        config = burgers_config(n_particles=n, init=InitRule(IID, Gaussian(0.0, 1.0)))
        harness._run(config, statistic, 0)  # warm-up
        peaks[n] = traced_peak(lambda: harness._run(config, statistic, 0))
        assert peaks[n] <= n * harness._BYTES_PER_PARTICLE + harness._BYTES_PER_RUN, n
    # N=2**15 is the largest run that forms every drift coefficient at once: the fixed
    # bytes are most of its need; from N=70000 on the particles are
    assert 0.75 * (2**15 * harness._BYTES_PER_PARTICLE + harness._BYTES_PER_RUN) < peaks[2**15]
    assert 0.75 * harness._BYTES_PER_PARTICLE < peaks[70_000] / 70_000
    k = 20_000
    assert 0.75 * harness._BYTES_PER_CELL < traced_peak(
        lambda: small_grid(k)) / k <= harness._BYTES_PER_CELL


@pytest.mark.parametrize("cores, workers", [({0}, 1), ({0, 1, 2}, 3), (set(range(8)), 4)],
                         ids=["one-core", "three-cores", "more-cores-than-runs"])
def test_study_spec_checks_memory_before_the_grid(monkeypatch, cores, workers):
    # one run's arrays per worker the pool starts (--threads 8: one per core
    # and per run of a row), plus the bisection and the batch sums of the
    # weak grid; nothing is built past the limit
    pin_cores(monkeypatch, cores)

    def build_grid(*_):
        raise AssertionError("the weak grid is built")

    monkeypatch.setattr(GridSpec, "from_quantile", build_grid)
    held = harness._IN_FLIGHT_PER_WORKER + harness._VECTORS_PER_WORKER if workers > 1 else 0
    need = (workers * (1000 * harness._BYTES_PER_PARTICLE + harness._BYTES_PER_RUN)
            + 300 * (harness._BYTES_PER_CELL + 8 * 2) + 8 * workers * held * 300)
    monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=r"MiB of memory, more than the \d MiB of physical"):
        StudySpec("weak", burgers_config(), "n", (4, 1000), 4, batches=2, grid_k=300, threads=8)
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="the weak grid is built"):  # past the check
        StudySpec("weak", burgers_config(), "n", (4, 1000), 4, batches=2, grid_k=300, threads=8)


def test_study_spec_counts_the_runs_its_threads_start(monkeypatch):
    # one thread runs one run at a time whatever the cores: one run fits
    # the memory, and only a spec that runs two at once is refused
    monkeypatch.setattr(harness, "_cores", lambda: 2)
    need = 1000 * harness._BYTES_PER_PARTICLE + harness._BYTES_PER_RUN + 8 * 2
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    assert StudySpec("strong", burgers_config(), "n", (1000,), 2).workers == 1
    with pytest.raises(ConfigError, match="MiB of memory, more than the"):
        StudySpec("strong", burgers_config(), "n", (1000,), 2, threads=2)


def test_weak_spec_counts_the_vectors_of_its_pool(monkeypatch):
    # with a pool the parent holds K-value results in flight and each worker its
    # own vectors: memory that fits two runs of the step kernel, but not the
    # vectors of two workers, takes one thread and refuses two
    monkeypatch.setattr(harness, "_cores", lambda: 2)
    k = 10**5
    run = 4 * harness._BYTES_PER_PARTICLE + harness._BYTES_PER_RUN
    monkeypatch.setattr(harness, "_physical_memory",
                        lambda: 2 * run + k * (harness._BYTES_PER_CELL + 8 * 2))
    monkeypatch.setattr(GridSpec, "from_quantile", lambda *args: None)
    assert StudySpec("weak", burgers_config(), "n", (4,), 4, batches=2, grid_k=k).workers == 1
    with pytest.raises(ConfigError, match="MiB of memory, more than the"):
        StudySpec("weak", burgers_config(), "n", (4,), 4, batches=2, grid_k=k, threads=2)


def test_strong_spec_counts_its_runs(monkeypatch):
    # a strong row keeps one 8-byte value per run on top of its workers' runs
    pin_cores(monkeypatch, {0})
    need = 1000 * harness._BYTES_PER_PARTICLE + harness._BYTES_PER_RUN + 8 * 10**6
    monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match="MiB of memory, more than the"):
        StudySpec("strong", burgers_config(), "n", (4, 1000), 10**6)
    monkeypatch.setattr(harness, "_physical_memory", lambda: need)
    assert StudySpec("strong", burgers_config(), "n", (4, 1000), 10**6).runs == 10**6


@pytest.mark.parametrize("paired", [False, True])
def test_study_spec_row_configs(paired):
    # row j runs base with its swept value and seed derive_seed(base seed, j),
    # or the base seed itself when paired; the base's own N is never run
    base = burgers_config(n_particles=1, seed=1234)
    spec = StudySpec("strong", base, "n", (4, 8, 16), 3, paired_seeds=paired)
    assert [c.n_particles for c in spec.configs] == [4, 8, 16]
    expected = [1234] * 3 if paired else [derive_seed(1234, j) for j in range(3)]
    assert [c.seed for c in spec.configs] == expected
    assert spec.configs[1] == SimulationConfig(
        n_particles=8, step=0.25, horizon=1.0, sigma=SIGMA, flux=BURGERS, seed=expected[1])
    h_spec = StudySpec("weak", base, "h", (0.5, 0.25), 4, batches=2, grid_k=8,
                       paired_seeds=paired)
    assert [(c.step, c.seed) for c in h_spec.configs] == [
        (0.5, expected[0]), (0.25, expected[1])]
    # the weak reference grid is built with the rows; a strong study has none
    np.testing.assert_array_equal(h_spec.grid.midpoint_quantiles,
                                  small_grid(8).midpoint_quantiles)
    assert spec.grid is None


# -- statistical sanity of the confidence interval -------------------------------

class _GaussianReference:
    """Exact law of the linear-flux translation run: normal(c*t, sigma^2*t)."""

    def __init__(self, sigma, speed=1.0):
        self.sigma = sigma
        self.speed = speed

    def cdf(self, t, x):
        return ndtr((np.asarray(x, dtype=float) - self.speed * t)
                    / (self.sigma * np.sqrt(t)))

    def quantile(self, t, u):
        return self.speed * t + self.sigma * np.sqrt(t) * ndtri(u)


def test_interval_covers_known_model(monkeypatch):
    # rigged model with i.i.d. runs: drift is rank-free, the run law is exact,
    # and the truth is pinned by a pilot 500x larger than each replication
    flux = FluxFunction.polynomial((0.0, 1.0))
    monkeypatch.setattr(harness, "get_reference",
                        lambda config: _GaussianReference(config.sigma))

    def point(seed, runs):
        cfg = SimulationConfig(n_particles=16, step=1.0, horizon=1.0, sigma=1.0,
                               flux=flux, seed=seed)
        return one_row_point("strong", cfg, runs)

    truth, _ = point(1000, 30000)
    covered = 0
    for m in range(100):
        est, prec = point(derive_seed(777, m), 60)
        covered += int(abs(est - truth) <= prec)
    assert covered >= 90


def test_weak_interval_covers_known_model(monkeypatch):
    # rigged model with i.i.d. runs: each run is 100 draws of N(1, 1) from
    # its own seed, against the reference N(1.05, 1), so the weak error is
    # about 0.05; the truth is pinned by a pilot 20x larger than each
    # replication.  Each replication has 10 batches of 100 runs, the regime
    # where the batch-means half-width is calibrated: over 200 replications
    # it covered 181 (1.96 on 9 degrees of freedom covers 92%).  At 10 runs a
    # batch the same test covered 157 of 200: the half-width under-states the
    # spread about 1.5-fold there.
    monkeypatch.setattr(harness, "get_reference",
                        lambda config: _GaussianReference(config.sigma, speed=1.05))
    monkeypatch.setattr(harness, "simulate", lambda config: engine.ParticleEnsemble(
        1.0 + make_generator(config.seed).standard_normal(config.n_particles)))

    def point(seed, runs):
        cfg = SimulationConfig(n_particles=100, step=1.0, horizon=1.0, sigma=1.0,
                               flux=FluxFunction.polynomial((0.0, 1.0)), seed=seed)
        return one_row_point("weak", cfg, runs, batches=10, grid_k=50)

    truth, _ = point(1000, 20000)
    covered = 0
    for m in range(40):
        est, prec = point(derive_seed(777, m), 1000)
        covered += int(abs(est - truth) <= prec)
    assert covered >= 33


# -- table output (written by the CLI) --------------------------------------------

@pytest.fixture
def table():
    return (StudyRow(250.0, 0.0331236111, 0.0029044222, None),
            StudyRow(1000.0, 0.0159825333, 0.0013318111, 0.0331236111 / 0.0159825333))


def test_emit_csv_format(table):
    lines = list(cli._table_lines(table, "csv"))
    assert lines[0] == "parameter,estimation,precision,ratio"
    assert lines[1] == "250,0.033123611,0.0029044222,"
    first = lines[2].split(",")
    assert first[0] == "1000"
    assert float(first[3]) == pytest.approx(0.0331236111 / 0.0159825333, rel=1e-7)


def test_emit_json_round_trip(table):
    rows = json.loads("\n".join(cli._table_lines(table, "json")))
    assert rows[0]["ratio"] is None
    for row, original in zip(rows, table):
        assert row["parameter"] == float(f"{original.parameter:.8g}")
        assert row["estimation"] == float(f"{original.estimation:.8g}")
        assert row["precision"] == float(f"{original.precision:.8g}")
    assert rows[1]["ratio"] == float(f"{table[1].ratio:.8g}")


def test_emit_stdout(tmp_path, capsys, monkeypatch, table):
    # without --out a study table goes to stdout, with the bytes it has in a file
    monkeypatch.setattr(cli.harness, "run_study", lambda spec: table)
    for fmt in ("csv", "json"):
        args = ["strong", "--sweep", "n:4", "--runs", "2", "--step", "0.5", "--format", fmt]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert out == "\n".join(cli._table_lines(table, fmt)) + "\n"
        assert cli.main(args + ["--out", str(tmp_path / fmt)]) == 0
        assert (tmp_path / fmt).read_bytes() == out.encode("ascii")


def test_emit_unwritable_destination_names_path(capsys):
    target = "/nonexistent-dir/sub/out.csv"
    assert cli.main(["strong", "--sweep", "n:4", "--runs", "2", "--step", "0.5",
                     "--out", target]) == 2
    assert capsys.readouterr().err == (
        f"rankflow: cannot write {target!r}: No such file or directory\n")


def test_emit_unknown_format(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["strong", "--sweep", "n:4", "--runs", "2", "--format", "xml"])
    assert info.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


def test_numerical_error_tagged_with_sweep_value(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(harness, "strong_error_point", boom)
    spec = StudySpec("strong", burgers_config(), "n", (8,), 3)
    with pytest.raises(NumericalError, match="sweep value 8"):
        run_study(spec)
