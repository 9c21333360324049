"""Bitwise golden gate: exact table bytes and final positions for fixed seeds.

The acceptance suite checks tables within Monte-Carlo tolerances; this
gate pins them bit for bit, so a refactor of the engine or the harness
that changes any number fails here even when the statistics still pass.
Tables are pinned at one and at two worker processes.
"""

import hashlib

import numpy as np
import pytest

import rankflow.cli as cli
from rankflow import (FRACTIONAL_RANK, IID, FluxFunction, Gaussian, InitRule,
                      SimulationConfig, simulate)

STRONG_ARGS = ["strong", "--sweep", "h:0.5,0.25", "--particles", "8", "--runs", "4",
               "--seed", "5"]
STRONG_CSV = (
    "parameter,estimation,precision,ratio\n"
    "0.5,0.19853573,0.055801054,\n"
    "0.25,0.15132479,0.056089516,1.3119842\n"
)

WEAK_ARGS = ["weak", "--sweep", "n:8,16", "--runs", "8", "--batches", "2",
             "--grid", "40", "--step", "0.25", "--seed", "5"]
WEAK_CSV = (
    "parameter,estimation,precision,ratio\n"
    "8,0.12406398,0.091067261,\n"
    "16,0.063821509,0.024711676,1.9439211\n"
)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("args, expected", [(STRONG_ARGS, STRONG_CSV),
                                            (WEAK_ARGS, WEAK_CSV)],
                         ids=["strong", "weak"])
def test_study_csv_bytes(tmp_path, args, expected, threads):
    out = tmp_path / "table.csv"
    assert cli.main(args + ["--threads", str(threads), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("ascii")


def _config(**kw):
    base = dict(n_particles=64, step=0.1, horizon=1.0, sigma=float(np.sqrt(0.2)),
                flux=FluxFunction.burgers(), seed=11)
    base.update(kw)
    return SimulationConfig(**base)


CUBIC = FluxFunction.polynomial((0.2, -0.4, 0.1, 1.0 / 3.0))

#: sha256 of the little-endian float64 bytes of the final positions
SIMULATE_CASES = {
    "dirac": (_config(),
              "8e000b093b172d8adffdfecfd8f41aea5089753c5a3510345a50c89003ec89be"),
    "iid": (_config(init=InitRule(IID, Gaussian(0.0, 1.0))),
            "3e097f8ac62af7a09960f56713ee51cd7b3d3ede7b6561dce81815983185bc31"),
    "sigma-zero": (_config(sigma=0.0),
                   "322fd8683aaa432cadd35197fa0f7d958a76a21a23cc88237838d67e5be051e3"),
    "frac": (_config(scheme=FRACTIONAL_RANK),
             "a1a9472f86ac4bb13ab6dd87d795b0ba49b9a13544b513d7ccd4a4a74affa00e"),
    "partial-step": (_config(step=0.3),
                     "1bcc37bd26155628097e080742c142ea4462455930c90c5b77686935fd75766e"),
    "cubic-flux": (_config(flux=CUBIC),
                   "a095117e7caad32f8367587dabcac897f63508fc2061887639d099b5dee8cde7"),
}


def positions_digest(config: SimulationConfig) -> str:
    final = simulate(config)
    return hashlib.sha256(np.asarray(final.positions, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_final_positions(case):
    config, digest = SIMULATE_CASES[case]
    assert positions_digest(config) == digest
