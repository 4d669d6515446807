"""Property tests: the error contract, file round trips, the saturating
profile, the field axioms and zero syndromes on codewords.

Every run is derandomized, so a failure reproduces on the next run.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convmds.code import (basic_degree, dual, format_code_file, make_code,
                          parse_code_file, pm_make, pm_memory,
                          window_generator)
from convmds.decoder import (encode_word, feedback_decode,
                             format_received_file, make_received,
                             parse_received_file)
from convmds.distances import column_distance, lm_params, profile
from convmds.errors import CodingError, RankDeficient
from convmds.fixtures import all_fixtures, fixture, reference_toeplitz
from convmds.galois import parse_field, standard_field
from convmds.selftest import decodable_fixtures
from decoder_oracle import window_syndrome

FIX = Path(__file__).resolve().parent.parent / "fixtures"
SAMPLES = [FIX / "smds_3_2_2_q16.code", FIX / "smds_2_1_2_q8.code",
           FIX / "received_2_1_2_q8.word"]
TOKENS = "0123456789,;^=()# -GHFfieldcodenkdeltareceivedlength"


def contract(fn, *args):
    """Call fn; a domain failure must be a CodingError, nothing else."""
    try:
        fn(*args)
    except CodingError:
        pass


@st.composite
def mutated_files(draw):
    """A bundled file with a few of its lines replaced, dropped or doubled."""
    lines = draw(st.sampled_from(SAMPLES)).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("replace", "drop", "double")))
        if edit == "replace":
            lines[i] = draw(st.text(TOKENS, max_size=16))
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def field_texts(draw):
    small = st.integers(-2, 40)
    head = str(draw(small))
    if draw(st.booleans()):
        head += f"^{draw(small)}"
    if draw(st.booleans()):
        coeffs = draw(st.lists(small, max_size=10))
        head += ";" + ",".join(map(str, coeffs))
    return f"GF({head})"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.text(), mutated_files()))
def test_file_parsers_raise_only_coding_errors(text):
    contract(parse_code_file, text)
    contract(parse_received_file, text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.text(), field_texts()))
def test_parse_field_raises_only_coding_errors(text):
    contract(parse_field, text)


DECODE_CODES = ["smds_2_1_2_q8", "smds_3_2_2_q16", "smds_4_3_1_q16",
                "smds_2_1_3_q32", "smds_3_1_1_q4"]
FIELDS = [standard_field(q) for q in (2, 4, 8, 11, 16, 32)]


@st.composite
def code_and_word(draw):
    """A decodable-looking code and a random word, often of its own shape."""
    c = fixture(draw(st.sampled_from(DECODE_CODES))).code
    if draw(st.booleans()):
        F, n = c.field, c.n
    else:
        F, n = draw(st.sampled_from(FIELDS)), draw(st.integers(1, 4))
    symbol = st.integers(0, F.q - 1)
    rows = draw(st.lists(st.lists(symbol, min_size=n, max_size=n),
                         min_size=1, max_size=12))
    return c, make_received(F, rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(code_and_word())
def test_feedback_decode_raises_only_coding_errors(pair):
    c, word = pair
    contract(feedback_decode, word, c)


SMALL_FIELD_CODES = ["smds_2_1_2_q8", "smds_3_1_1_q4", "smds_7_1_1_q8",
                     "smds_7_1_2_q8"]
COMMENT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


@st.composite
def random_codes(draw):
    """A basic k x n generator over GF(4) or GF(8) of degree at most 2."""
    F = standard_field(draw(st.sampled_from((4, 8))))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    poly = st.lists(st.integers(0, F.q - 1), max_size=3)
    G = pm_make(F, draw(st.lists(st.lists(poly, min_size=n, max_size=n),
                                 min_size=k, max_size=k)))
    try:
        delta = basic_degree(G)
    except RankDeficient:
        delta = None
    assume(delta is not None)
    return make_code(F, n, k, delta, gen=G)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(random_codes(),
                 st.sampled_from(SMALL_FIELD_CODES).map(
                     lambda name: fixture(name).code)),
       st.booleans(), COMMENT)
def test_code_file_round_trip(c, take_dual, comment):
    # the dual carries the matrix as a parity check instead of a generator
    c = dual(c) if take_dual else c
    assert parse_code_file(format_code_file(c, comment)) == c


@st.composite
def received_words(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    symbol = st.integers(0, F.q - 1)
    return make_received(F, draw(st.lists(
        st.lists(symbol, min_size=n, max_size=n), min_size=1, max_size=12)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(received_words(), COMMENT)
def test_received_file_round_trip(w, comment):
    back = parse_received_file(format_received_file(w, comment))
    assert (back.field, back.symbols) == (w.field, w.symbols)


SMALL_CODES = ["mds_2_1_2_q11", "smds_2_1_2_q8", "smds_3_1_1_q4",
               "smds_3_2_2_q16", "smds_4_3_1_q16", "smds_7_1_1_q8"]


@st.composite
def code_and_horizon(draw):
    c = fixture(draw(st.sampled_from(SMALL_CODES))).code
    _, M = lm_params(c.n, c.k, c.delta)
    return c, draw(st.integers(0, M + 2))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(code_and_horizon())
def test_saturating_profile_matches_per_j_oracle(pair):
    c, horizon = pair
    oracle = [column_distance(c, j) for j in range(horizon + 1)]
    prof = profile(c, horizon)
    assert prof.values == oracle
    first = next((j for j, d in enumerate(oracle) if d == prof.singleton),
                 None)
    fd = prof.free_distance
    assert fd.reached_at == first
    if first is None:
        assert (fd.value, fd.status) == (oracle[-1], "lower_bound")
    else:
        assert (fd.value, fd.status) == (prof.singleton, "exact")
        assert first >= prof.M


BUNDLED_FIELDS = sorted({fx.code.field for fx in all_fixtures().values()}
                        | {T.field for T in reference_toeplitz()},
                        key=lambda F: F.q)


@pytest.mark.parametrize("F", BUNDLED_FIELDS, ids=lambda F: f"q{F.q}")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms_on_bundled_fields(F, data):
    a, b, c = data.draw(st.lists(st.integers(0, F.q - 1),
                                 min_size=3, max_size=3))
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
    assert F.add(a, 0) == a == F.mul(a, 1)
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b)) and F.add(F.sub(a, b), b) == a
    if a:
        assert F.mul(a, F.inv(a)) == 1
    if b:
        assert F.div(a, b) == F.mul(a, F.inv(b)) and F.mul(F.div(a, b), b) == a


@pytest.mark.parametrize("name", [fx.name for fx in decodable_fixtures()])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_encoded_words_have_zero_window_syndromes(name, data):
    c = fixture(name).code
    _, M = lm_params(c.n, c.k, c.delta)
    coef = st.integers(0, c.field.q - 1)
    msg = data.draw(st.lists(st.lists(coef, max_size=5).map(tuple),
                             min_size=c.k, max_size=c.k))
    length = 5 + pm_memory(window_generator(c)) + M
    w = encode_word(c, msg, length)
    for j in range(length - M):
        assert window_syndrome(w, c, j) == [0] * (M + 1), j
