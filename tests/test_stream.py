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

