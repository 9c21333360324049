import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lattice_uniforms
from rankflow.stream import make_generator, open_uniforms

SIZES = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(0, 500).map(lambda k: 2 * k + 1),
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
)


@settings(deadline=None)
@given(st.integers(0, 2**64 - 1), SIZES)
def test_open_uniforms_equal_the_lattice_of_random_and_consume_the_same_stream(seed, size):
    # raw 64-bit outputs shifted by 12 give the same lattice as the 53-bit doubles
    rng, oracle_rng = make_generator(seed), make_generator(seed)
    u = open_uniforms(rng, size)
    expected = lattice_uniforms(oracle_rng, size)
    assert u.dtype == expected.dtype and u.shape == expected.shape
    assert u.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # the next draw continues from the same position
    assert rng.random() == oracle_rng.random()


class RawWords:
    """A stand-in generator whose bit generator hands out fixed raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        assert size == self.words.shape
        return self.words.copy()


def test_open_uniforms_at_the_extreme_raw_words():
    # the lowest and highest 52-bit lattice index, the low 12 bits dropped,
    # and the top bit alone: where an exponent-bit construction could slip
    words = [0, 4095, 4096, 2**63, 2**64 - 1]
    half_ulp = 2.0**-53
    u = open_uniforms(RawWords(words), (5,))
    assert u.dtype == np.float64
    assert u.tolist() == [half_ulp, half_ulp, 3 * half_ulp, 0.5 + half_ulp, 1.0 - half_ulp]
    assert ((0.0 < u) & (u < 1.0)).all()
