"""Bundled reference codes and the files shipped under fixtures/."""

import os

import pytest

from convmds.code import load_code, pm_is_zero, pm_mul, pm_transpose
from convmds.decoder import load_received
from convmds.distances import lm_params, singleton_bound
from convmds.fixtures import (all_fixtures, decode_walkthrough, fixture,
                              reference_toeplitz, write_fixture_files)
from convmds.selftest import decodable_fixtures
from convmds.superregular import is_superregular

REPO_FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_registry_is_consistent():
    fxs = all_fixtures()
    assert len(fxs) == 17
    for name, fx in fxs.items():
        assert fx.name == name
        c = fx.code
        assert 0 < c.k < c.n
        if fx.profile:
            _, M = lm_params(c.n, c.k, c.delta)
            assert len(fx.profile) <= M + 1
            assert all(a <= b for a, b in zip(fx.profile, fx.profile[1:]))
        if fx.dfree is not None:
            assert fx.dfree <= singleton_bound(c.n, c.k, c.delta)
    with pytest.raises(KeyError):
        fixture("no_such_code")


def test_two_sided_fixtures_orthogonal():
    for name, fx in all_fixtures().items():
        c = fx.code
        if c.gen is not None and c.par is not None:
            assert pm_is_zero(pm_mul(c.gen, pm_transpose(c.par))), name


def test_reference_toeplitz_inventory():
    refs = reference_toeplitz()
    sizes = sorted((T.field.q, T.size) for T in refs)
    assert sizes == [(2, 2), (3, 3), (4, 3), (5, 4), (7, 5), (8, 5), (11, 6),
                     (16, 6), (17, 7), (32, 7), (64, 8)]
    for T in refs:
        assert T.col[0] == 1
        assert is_superregular(T)


def test_walkthrough_bundle():
    walk = decode_walkthrough()
    assert walk["code"] in all_fixtures()
    assert walk["received"].n == 2
    assert len(walk["decoded"]) == 2
    assert set(walk["eta0"]) == {0, 5}


def test_decodable_fixture_selection():
    names = {fx.name for fx in decodable_fixtures()}
    assert names == {"smds_2_1_2_q8", "smds_2_1_3_q32", "smds_3_2_2_q16",
                     "smds_3_2_2_q16b", "smds_3_2_2_q64", "smds_4_3_1_q16"}


def test_repo_fixture_files_match_registry():
    for name, fx in all_fixtures().items():
        path = os.path.join(REPO_FIXTURES, f"{name}.code")
        assert os.path.exists(path), path
        c = load_code(path)
        assert c.gen == fx.code.gen and c.par == fx.code.par, name
        assert (c.n, c.k, c.delta) == (fx.code.n, fx.code.k, fx.code.delta)
    word = load_received(os.path.join(REPO_FIXTURES, "received_2_1_2_q8.word"))
    assert word.symbols == decode_walkthrough()["received"].symbols


def test_write_fixture_files_round_trip(tmp_path):
    paths = write_fixture_files(tmp_path)
    assert len(paths) == 18
    for path in paths:
        committed = os.path.join(REPO_FIXTURES, os.path.basename(path))
        with open(path, "rb") as new, open(committed, "rb") as old:
            assert new.read() == old.read(), committed
        path = str(path)
        if path.endswith(".code"):
            load_code(path)
        else:
            load_received(path)
