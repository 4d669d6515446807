"""The sliding-window error channel against the sampler it replaced.

``decoder_oracle.make_error_pattern`` rescans every window on each try and
never stops early.  The package's window-count sampler must return the same
pattern, or raise the same exception, for every input.  The Hypothesis test
is derandomized, so a failure reproduces on the next run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoder_oracle
from convmds.decoder import make_error_pattern
from convmds.distances import lm_params
from convmds.errors import CodingError, Infeasible
from convmds.galois import standard_field
from convmds.rng import XorShift64Star
from convmds.selftest import decodable_fixtures


def decodable_shapes():
    """(field, n, M, t, length) as the simulations use them, one per shape."""
    shapes = {}
    for fx in decodable_fixtures():
        c = fx.code
        _, M = lm_params(c.n, c.k, c.delta)
        shapes.setdefault((c.n, M),
                          (c.field, c.n, M, (M + 1) // 2, 13 + 2 * M))
    return list(shapes.values())


def outcome(sample, *args):
    """The pattern, or the type and message of the domain error raised."""
    try:
        return sample(*args)
    except CodingError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("shape", decodable_shapes(),
                         ids=lambda s: "n{1}-M{2}-t{3}-L{4}".format(*s))
def test_decodable_shapes_match_the_oracle(shape):
    F, n, M, t, length = shape
    for seed in range(100):
        new = make_error_pattern(F, length, n, M, t, seed)
        old = decoder_oracle.make_error_pattern(F, length, n, M, t, seed)
        assert new == old, seed


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.sampled_from([standard_field(q) for q in (2, 3, 8)]),
       st.integers(1, 30), st.integers(1, 4), st.integers(0, 6),
       st.integers(0, 4), st.integers(0, (1 << 64) - 1), st.booleans(),
       st.none() | st.integers(-1, 12))
def test_small_shapes_match_the_oracle(F, length, n, M, t, seed, adversarial,
                                       errors):
    args = (F, length, n, M, t, seed, adversarial, errors)
    assert (outcome(make_error_pattern, *args)
            == outcome(decoder_oracle.make_error_pattern, *args))


def test_sampling_stops_once_no_slot_is_open(monkeypatch):
    draws = []
    below = XorShift64Star.below
    monkeypatch.setattr(XorShift64Star, "below",
                        lambda rng, k: draws.append(k) or below(rng, k))
    # 100 errors cannot fit, so only the stop rule ends the sampling early:
    # running to the limit of 40,000 tries takes at least 80,000 draws.
    with pytest.raises(Infeasible):
        make_error_pattern(standard_field(8), 30, 2, 4, 2, seed=9, errors=100)
    assert 0 < len(draws) < 10_000
