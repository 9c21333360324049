"""One digest per dependency path the bits of every table go through.

``tests/test_golden.py`` pins whole tables, so a version upgrade that moves
a bit fails there without saying which dependency moved it.  Each test
here pins one path, and its message names the dependency: numpy's
``SeedSequence``, PCG64's raw words and pairwise ``np.sum``, and scipy's
``ndtri``, ``log_ndtr`` and ``expit``.  The central branch of ``ndtri`` is
also checked against Cephes' formula evaluated in numpy
(``oracles.ndtri_central``), bit for bit.
"""

import hashlib

import numpy as np
from scipy.special import expit, log_ndtr, ndtri

from oracles import ndtri_central
from rankflow.stream import derive_seed, make_generator, open_uniforms


def digest(values) -> str:
    """sha256 of the little-endian bytes of ``values``."""
    a = np.asarray(values)
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()


#: lattice points (j + 0.5) / 2**52 at both ends, 2**-53 and 1 - 2**-53 among them
TAILS = (np.concatenate([np.arange(16), 2**52 - 16 + np.arange(16)]) + 0.5) / 2.0**52
#: 4096 lattice points of a fixed stream, about 73% of them in the central branch
LATTICE = open_uniforms(make_generator(123), 4096)
#: the arguments log Phi and the logistic function see: finite, large and infinite
GRID = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-1e300, -1e3, 1e3, 1e300],
                       [-np.inf, np.inf]])


#: sha256 of each path's output on the versions the golden digests were made with
DIGESTS = {
    "derive_seed": "c7bc17515fec9d3332b9a70cbc106e4c6547447a3b889fa126ea5a0564bc9c9f",
    "raw words": "f70224964f92d25bf3b75240231e67f976989f29780a60835933e0401e782a3b",
    "ndtri tails": "124121952b82e6a4f64353f0e99dc6043bea4b81367bacda150c1220e29bd1e8",
    "ndtri lattice": "80910be4068848a9970681a96d3d20ceadf98c99564439db1024e668f5d11925",
    "log_ndtr": "5b7913d20707fa7d9f81e6ad89f943f1d8928aa172975d78de581953d25e4885",
    "expit": "ed90bc43ae43c3de8840edef322f442032c44b544e5dc69c41500fb00678f245",
    "sum": "3546ff22c27b6736cc2fdadfd10f5c655241c6ab2409b51c472c24b787d39afe",
    "reversed sum": "3dcca5504d5dafc9b5fadecdd41eb568bff65fef9a9d1b5c4abc3d5b97d93963",
}


def test_numpy_seed_sequence_derives_the_same_seeds():
    seeds = [derive_seed(*path) for path in [(0,), (5,), (5, 0), (5, 1), (11, 3, 2),
                                             (2**63, 7), (2**64 - 1,)]]
    assert digest(np.array(seeds, dtype=np.uint64)) == DIGESTS["derive_seed"], (
        "numpy's SeedSequence changed: derive_seed gives other seeds")


def test_numpy_pcg64_gives_the_same_raw_words():
    words = [make_generator(s).bit_generator.random_raw(64) for s in (0, 1, 2**64 - 1)]
    assert digest(np.concatenate(words)) == DIGESTS["raw words"], (
        "numpy's PCG64 or SeedSequence changed: make_generator gives other words")


def test_scipy_ndtri_gives_the_same_normals():
    assert TAILS[0] == 2.0**-53 and TAILS[-1] == 1.0 - 2.0**-53
    assert digest(ndtri(TAILS)) == DIGESTS["ndtri tails"], "scipy's ndtri changed in its tails"
    assert digest(ndtri(LATTICE)) == DIGESTS["ndtri lattice"], (
        "scipy's ndtri changed on the uniform lattice")


def test_scipy_ndtri_is_cephes_central_branch_bit_for_bit():
    edge = np.exp(-2.0)
    points = np.concatenate([LATTICE, [0.5, np.nextafter(edge, 1.0), 1.0 - edge,
                                       np.nextafter(1.0 - edge, 0.0)]])
    central = ndtri_central(points)
    inside = ~np.isnan(central)
    assert inside.sum() > 2900
    assert central[inside].tobytes() == ndtri(points[inside]).tobytes(), (
        "scipy's ndtri no longer evaluates Cephes' central rational approximation")


def test_scipy_log_ndtr_and_expit_give_the_same_values():
    with np.errstate(over="ignore"):
        assert digest(log_ndtr(GRID)) == DIGESTS["log_ndtr"], "scipy's log_ndtr changed"
        assert digest(expit(GRID)) == DIGESTS["expit"], "scipy's expit changed"


def test_numpy_sum_adds_in_the_same_pairwise_order():
    # 1/k is correctly rounded, so the terms are the same on every platform;
    # 100003 terms take the pairwise tree through blocks and a ragged end
    terms = 1.0 / np.arange(1, 100004, dtype=float)
    assert digest(np.sum(terms)) == DIGESTS["sum"], "numpy's pairwise np.sum changed its order"
    assert digest(np.sum(terms[::-1])) == DIGESTS["reversed sum"], (
        "numpy's pairwise np.sum changed its order")
