"""Seeded random streams and seed derivation.

Every random quantity in this package is produced by inverse-transform
sampling from one uniform stream per consumer, so that runs are
reproducible bit for bit across platforms and thread counts:

* uniforms are the open-interval lattice ``(j + 0.5) / 2**52`` where ``j``
  is the top 52 bits (``next64 >> 12``) of one raw 64-bit PCG64 output,
  formed exactly from exponent bits (:func:`open_uniforms`).
  ``numpy.random.Generator.random`` builds its double from the top 53 bits
  of the same output (``(next64 >> 11) * 2**-53``), so the lattice point is
  the top 52 bits of that double and the stream is consumed exactly as one
  ``random`` draw per uniform would consume it.  The lattice never contains
  0 or 1, so quantile functions can be applied without guards;
* standard normals are ``ndtri`` (inverse normal CDF, Cephes rational
  approximation, absolute error well below 1e-9) of those uniforms,
  computed in place over them;
* child seeds are derived by hashing an integer path through
  ``numpy.random.SeedSequence`` and keeping the first 64-bit word.  The
  study harness derives ``(base_seed, sweep_index)`` per table row and
  ``(row_seed, run_index)`` per Monte-Carlo run; a simulation derives
  ``(run_seed, 0)`` for its i.i.d. initial positions (the optimal rule
  draws none) and ``(run_seed, 1)`` for its Brownian increments, so the
  increment stream does not depend on the initialization rule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

#: exponent bits of 1.0: OR-ed onto 52 fraction bits they give 1 + j * 2**-52
_ONE_BITS = np.uint64(0x3FF0000000000000)

#: 1 - 2**-53: subtracted from 1 + j * 2**-52 it leaves (j + 0.5) * 2**-52
_ONE_MINUS_HALF_ULP = 1.0 - 2.0**-53


def derive_seed(*path: int) -> int:
    """Hash an integer path to a fresh 64-bit seed."""
    ss = np.random.SeedSequence([int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


def make_generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed, such as a :func:`derive_seed` output."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def open_uniforms(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), lattice (j + 0.5)/2**52.

    ``j`` is the top 52 bits of one raw PCG64 output per value, read from
    the bit generator: one output per value, as ``rng.random(size)`` takes,
    so both leave the stream at the same position.

    The doubles are built in the raw array itself, with no integer to float
    conversion: ``j`` OR-ed with the exponent bits of 1.0 is the double
    ``1 + j * 2**-52`` (exact, as j < 2**52), and subtracting ``1 - 2**-53``
    leaves ``(2j + 1) * 2**-53``, exact because that odd integer is below
    2**53.
    """
    j = rng.bit_generator.random_raw(size)
    j >>= 12
    j |= _ONE_BITS
    u = j.view(np.float64)
    u -= _ONE_MINUS_HALF_ULP
    return u


def standard_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws via the inverse CDF of :func:`open_uniforms`,
    written over the uniforms."""
    u = open_uniforms(rng, size)
    return ndtri(u, out=u)
