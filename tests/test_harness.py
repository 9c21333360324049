import json

import numpy as np
import pytest
from scipy.special import ndtr

import rankflow.harness as harness
from rankflow import (BurgersSolution, ConfigError, EmitError, ErrorTable,
                      FluxFunction, GridSpec, NumericalError, SimulationConfig,
                      StudySpec, UnsupportedReferenceError, emit, run_study,
                      strong_error_point, weak_error_point)
from rankflow.metrics import psi_grid_free
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


# -- strong error point --------------------------------------------------------

def test_strong_point_sigma_zero_degenerate(monkeypatch):
    # all runs are identical without noise, so the interval collapses; the
    # closed form needs sigma > 0, so pin a fixed reference CDF instead
    reference = _GaussianReference(1.0, speed=0.25)
    monkeypatch.setitem(harness.EXACT_REFERENCES, "burgers", lambda sigma: reference)
    cfg = burgers_config(sigma=0.0)
    est, prec = strong_error_point(cfg, 5)
    assert prec == 0.0
    single = psi_grid_free(np.sort(harness.simulate(cfg).positions),
                           lambda x: reference.cdf(1.0, x))
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
    est, prec = strong_error_point(cfg, 2)
    assert est == pytest.approx(mean, abs=1e-14)
    assert prec == pytest.approx(spread, abs=1e-14)


def test_strong_point_requires_reference():
    cfg = burgers_config(flux=FluxFunction.quadratic())
    with pytest.raises(UnsupportedReferenceError):
        strong_error_point(cfg, 3)


def test_strong_point_requires_two_runs():
    with pytest.raises(ConfigError):
        strong_error_point(burgers_config(), 1)


# -- weak error point ----------------------------------------------------------

def test_weak_point_identical_batches_zero_precision(monkeypatch):
    monkeypatch.setitem(harness.EXACT_REFERENCES, "burgers",
                        lambda sigma: _GaussianReference(1.0))
    cfg = burgers_config(sigma=0.0)
    est, prec = weak_error_point(cfg, 4, 2, small_grid())
    assert prec == 0.0
    assert est >= 0.0


def test_weak_point_validation():
    grid = small_grid()
    with pytest.raises(ConfigError):
        weak_error_point(burgers_config(), 5, 2, grid)  # batches must divide runs
    with pytest.raises(ConfigError):
        weak_error_point(burgers_config(), 4, 1, grid)
    with pytest.raises(UnsupportedReferenceError):
        weak_error_point(burgers_config(flux=FluxFunction.quadratic()), 4, 2, grid)


def test_weak_never_far_above_strong():
    # the mean profile is at least as close as the average distance
    cfg = burgers_config(n_particles=100, step=0.05)
    strong_est, strong_prec = strong_error_point(cfg, 40)
    weak_est, weak_prec = weak_error_point(cfg, 40, 4, small_grid(500))
    assert weak_est <= strong_est + strong_prec + weak_prec


# -- study driver ----------------------------------------------------------------

def test_run_study_single_row_has_no_ratio():
    spec = StudySpec("strong", burgers_config(), "n", (8,), 3)
    table = run_study(spec)
    assert len(table.rows) == 1
    assert table.rows[0].ratio is None


def test_run_study_ratio_is_previous_over_current():
    spec = StudySpec("strong", burgers_config(seed=3), "n", (4, 8, 16), 4)
    rows = run_study(spec).rows
    assert rows[1].ratio == pytest.approx(rows[0].estimation / rows[1].estimation)
    assert rows[2].ratio == pytest.approx(rows[1].estimation / rows[2].estimation)


def test_run_study_sweep_h():
    spec = StudySpec("strong", burgers_config(), "h", (0.5, 0.25), 3)
    rows = run_study(spec).rows
    assert [r.parameter for r in rows] == [0.5, 0.25]


def test_run_study_deterministic_and_thread_invariant():
    spec = StudySpec("weak", burgers_config(n_particles=12), "n", (6, 12), 6,
                     batches=3, grid_k=40)
    serial = run_study(spec, threads=1)
    again = run_study(spec, threads=1)
    pooled = run_study(spec, threads=2)
    assert serial == again
    assert serial == pooled


def test_run_study_paired_seeds_share_noise():
    spec = StudySpec("strong", burgers_config(), "n", (8, 8), 4, paired_seeds=True)
    rows = run_study(spec).rows
    assert rows[0].estimation == rows[1].estimation
    unpaired = run_study(StudySpec("strong", burgers_config(), "n", (8, 8), 4)).rows
    assert unpaired[0].estimation != unpaired[1].estimation


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


# -- statistical sanity of the confidence interval -------------------------------

class _GaussianReference:
    """Exact law of the linear-flux translation run: normal(c*t, sigma^2*t)."""

    def __init__(self, sigma, speed=1.0):
        self.sigma = sigma
        self.speed = speed

    def cdf(self, t, x):
        return ndtr((np.asarray(x, dtype=float) - self.speed * t)
                    / (self.sigma * np.sqrt(t)))


def test_interval_covers_known_model(monkeypatch):
    # rigged model with i.i.d. runs: drift is rank-free, the run law is exact,
    # and the truth is pinned by a pilot 500x larger than each replication
    flux = FluxFunction.polynomial((0.0, 1.0))
    monkeypatch.setitem(harness.EXACT_REFERENCES, "polynomial",
                        lambda sigma: _GaussianReference(sigma))
    cfg = SimulationConfig(n_particles=16, step=1.0, horizon=1.0, sigma=1.0,
                           flux=flux, seed=1000)
    truth, _ = strong_error_point(cfg, 30000)
    covered = 0
    for m in range(100):
        est, prec = strong_error_point(
            SimulationConfig(n_particles=16, step=1.0, horizon=1.0, sigma=1.0,
                             flux=flux, seed=derive_seed(777, m)), 60)
        covered += int(abs(est - truth) <= prec)
    assert covered >= 90


# -- emit -------------------------------------------------------------------------

@pytest.fixture
def table():
    return ErrorTable.from_points([(250.0, 0.0331236111, 0.0029044222),
                                   (1000.0, 0.0159825333, 0.0013318111)])


def test_emit_csv_format(tmp_path, table):
    path = tmp_path / "out.csv"
    emit(table, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "parameter,estimation,precision,ratio"
    assert lines[1] == "250,0.033123611,0.0029044222,"
    first = lines[2].split(",")
    assert first[0] == "1000"
    assert float(first[3]) == pytest.approx(0.0331236111 / 0.0159825333, rel=1e-7)


def test_emit_json_round_trip(tmp_path, table):
    path = tmp_path / "out.json"
    emit(table, "json", path)
    rows = json.loads(path.read_text())
    assert rows[0]["ratio"] is None
    for row, original in zip(rows, table.rows):
        assert row["parameter"] == float(f"{original.parameter:.8g}")
        assert row["estimation"] == float(f"{original.estimation:.8g}")
        assert row["precision"] == float(f"{original.precision:.8g}")
    assert rows[1]["ratio"] == float(f"{table.rows[1].ratio:.8g}")


def test_emit_stdout(capsys, table):
    emit(table, "csv", None)
    out = capsys.readouterr().out
    assert out.startswith("parameter,estimation,precision,ratio\n")
    assert len(out.splitlines()) == 3


def test_emit_unwritable_destination_names_path(table):
    target = "/nonexistent-dir/sub/out.csv"
    with pytest.raises(EmitError, match="nonexistent-dir"):
        emit(table, "csv", target)


def test_emit_unknown_format(table):
    with pytest.raises(ConfigError):
        emit(table, "xml", None)


def test_numerical_error_tagged_with_sweep_value(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(harness, "strong_error_point", boom)
    spec = StudySpec("strong", burgers_config(), "n", (8,), 3)
    with pytest.raises(NumericalError, match="sweep value 8"):
        run_study(spec)
