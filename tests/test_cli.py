"""Command line behavior: outputs, file round trips, exit codes."""

import time

import pytest

from convmds import distances
from convmds.cli import main
from convmds.code import load_code
from convmds.decoder import encode_word, load_received, save_received

FIX = "fixtures"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_golden(capsys):
    rc, out, err = run(capsys, "classify", "--code", f"{FIX}/smds_3_1_1_q4.code",
                       "--format", "csv")
    assert rc == 0 and not err
    assert 'profile,"3,5,6"' in out
    assert "strongly-MDS,true" in out
    assert "MDP,true" in out


def test_classify_text_has_aligned_and_csv_blocks(capsys):
    rc, out, _ = run(capsys, "classify", "--code", f"{FIX}/smds_3_1_1_q4.code")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("property") and "," not in lines[0]
    assert "property,value" in lines


def test_classify_mds_only_needs_longer_horizon(capsys):
    rc, out, _ = run(capsys, "classify", "--code", f"{FIX}/mds_2_1_2_q11.code",
                     "--horizon", "5", "--format", "csv")
    assert rc == 0
    assert "strongly-MDS,false" in out
    assert "MDS,true" in out
    assert "free-distance,6 (exact)" in out


@pytest.mark.parametrize("name, horizon, searched, profile", [
    ("smds_3_1_1_q4", None, [0, 1, 2], "3,5,6"),
    ("smds_2_1_2_q8", None, [0, 1, 2, 3, 4], "2,3,4,5,6"),
    ("smds_3_1_1_q4", "5", [0, 1, 2], "3,5,6,6,6,6"),
    ("mds_2_1_2_q11", "7", [0, 1, 2, 3, 4, 5], "2,3,4,5,5,6,6,6"),
], ids=["q4", "q8", "q4-past-M", "q11-past-M"])
def test_classify_searches_each_column_distance_once(capsys, monkeypatch, name,
                                                     horizon, searched,
                                                     profile):
    # one profile pass: j = 0..M once each, none past the Singleton bound
    seen = []
    real = distances.column_distance

    def counted(c, j, *args, **kwargs):
        seen.append(j)
        return real(c, j, *args, **kwargs)

    monkeypatch.setattr(distances, "column_distance", counted)
    argv = ["classify", "--code", f"{FIX}/{name}.code", "--format", "csv"]
    if horizon is not None:
        argv += ["--horizon", horizon]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert seen == searched
    assert f'profile,"{profile}"' in out


def test_distances_table(capsys):
    rc, out, _ = run(capsys, "distances", "--code", f"{FIX}/smds_2_1_2_q8.code",
                     "--format", "csv")
    assert rc == 0
    assert "j,dc,bound,status,mark" in out
    assert "4,6,6,tight,LM" in out


def test_superregular_check(capsys):
    rc, out, _ = run(capsys, "superregular", "--check", "GF(2^1;0,1);1,1")
    assert rc == 0 and out.strip() == "true"
    rc, out, _ = run(capsys, "superregular", "--check", "GF(2^2;1,1,1);1,1,1")
    assert rc == 0 and out.strip() == "false"


def test_superregular_search(capsys):
    rc, out, _ = run(capsys, "superregular", "--search", "3", "--field",
                     "GF(2^2;1,1,1)")
    assert rc == 0
    assert out.strip() == "GF(2^2; 1,1,1) ; 1,1,2"
    # 32^6 columns exceed the default budget, the minors checked do not
    rc, out, _ = run(capsys, "superregular", "--search", "7", "--field",
                     "GF(2^5;1,0,1,0,0,1)")
    assert rc == 0
    assert out.strip() == "GF(2^5; 1,0,1,0,0,1) ; 1,1,2,3,8,1,26"


def test_superregular_general_search(capsys):
    rc, out, _ = run(capsys, "superregular", "--search", "3", "--field",
                     "GF(2^2;1,1,1)", "--general")
    assert rc == 0
    assert out.splitlines() == ["1 2 1", "1 1 2", "2 1 1"]


def test_superregular_search_miss(capsys):
    rc, out, err = run(capsys, "superregular", "--search", "3", "--field",
                       "GF(2)")
    assert rc == 1 and out == ""
    assert err.startswith("error[NO_SUPERREGULAR_FOUND]")


@pytest.mark.parametrize("general", [[], ["--general"]], ids=["lower", "general"])
def test_superregular_search_of_a_huge_size_misses_quickly(capsys, general):
    # the walk ends at a low level; no deeper level or charge is built
    start = time.perf_counter()
    rc, out, err = run(capsys, "superregular", "--search", "1000000000",
                       "--field", "GF(2)", *general)
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[NO_SUPERREGULAR_FOUND]")


@pytest.mark.parametrize("argv", [
    ["classify", "--code", f"{FIX}/smds_3_1_1_q4.code"],
    ["superregular", "--search", "5", "--field", "GF(2^3;1,1,0,1)"],
    ["decode", "--code", f"{FIX}/smds_2_1_2_q8.code",
     "--received", f"{FIX}/received_2_1_2_q8.word"],
], ids=["classify", "superregular", "decode"])
def test_budget_zero_is_a_budget_not_the_default(capsys, argv):
    rc, _, err = run(capsys, *argv, "--budget", "0")
    assert rc == 1
    assert err.startswith("error[BUDGET_EXCEEDED]")


def test_construct_round_trip(tmp_path, capsys):
    out_file = tmp_path / "c.code"
    rc, out, _ = run(capsys, "construct", "--n", "2", "--delta", "2",
                     "--field", "GF(2^3;1,1,0,1)", "--toeplitz", "1,2,3,2,1",
                     "--out", str(out_file), "--format", "csv")
    assert rc == 0
    assert "strongly_mds,true" in out
    assert "d_c_M,6" in out
    rc, out, _ = run(capsys, "classify", "--code", str(out_file),
                     "--format", "csv")
    assert rc == 0 and "strongly-MDS,true" in out


def load_code_text(text):
    from convmds.code import parse_code_file
    return parse_code_file(text)


def test_construct_stdout_body_parses(capsys):
    rc, out, _ = run(capsys, "construct", "--n", "2", "--delta", "1",
                     "--field", "GF(2^2;1,1,1)", "--format", "csv")
    assert rc == 0
    body = out[out.index("field GF("):]
    c = load_code_text(body)
    assert (c.n, c.k, c.delta) == (2, 1, 1)


def test_construct_dual(tmp_path, capsys):
    out_file = tmp_path / "d.code"
    rc, out, _ = run(capsys, "construct", "--n", "3", "--delta", "2",
                     "--field", "GF(2^6;1,1,0,0,0,0,1)", "--dual",
                     "--toeplitz", "1,2,24,18,18,24,2,1",
                     "--out", str(out_file), "--format", "csv")
    assert rc == 0
    assert "dual_of_certified,true" in out
    c = load_code(out_file)
    assert (c.n, c.k, c.delta) == (3, 1, 2)
    assert c.gen is not None and c.par is None


def test_construct_searches_for_the_least_column(capsys):
    rc, out, _ = run(capsys, "construct", "--n", "2", "--delta", "3",
                     "--field", "GF(2^5;1,0,1,0,0,1)", "--format", "csv")
    assert rc == 0
    assert 'toeplitz,"1,1,2,3,8,1,26"' in out


def test_construct_dual_rejects_n_below_two(capsys):
    rc, out, err = run(capsys, "construct", "--n", "1", "--delta", "2",
                       "--dual", "--field", "GF(2^2;1,1,1)")
    assert rc == 1 and out == ""
    assert err.startswith("error[BAD_PARAMS]")


def test_construct_rejects_bad_column(capsys):
    rc, out, err = run(capsys, "construct", "--n", "2", "--delta", "2",
                       "--field", "GF(2^3;1,1,0,1)", "--toeplitz", "1,2,5,3,7")
    assert rc == 1 and out == ""
    assert err.startswith("error[NOT_SUPERREGULAR]")


def test_decode_fixture_word(tmp_path, capsys):
    out_file = tmp_path / "decoded.word"
    rc, out, _ = run(capsys, "decode", "--code", f"{FIX}/smds_2_1_2_q8.code",
                     "--received", f"{FIX}/received_2_1_2_q8.word",
                     "--out", str(out_file), "--format", "csv")
    assert rc == 0
    assert "status,success" in out
    assert 'v0,"1,2,0,0,7,4"' in out
    word = load_received(out_file)
    assert word.n == 2


def test_decode_out_writes_a_codeword_that_reaches_into_the_tail(tmp_path,
                                                                capsys):
    # the message (1 + 3 D^5) sends v_6 and v_7 into the undecoded tail of a
    # 10-block word; --out keeps blocks 0..core_end = 0..5
    c = load_code(f"{FIX}/smds_2_1_2_q8.code")
    word, out_file = tmp_path / "tail.word", tmp_path / "decoded.word"
    save_received(encode_word(c, [(1, 0, 0, 0, 0, 3)], 10), word)
    rc, out, err = run(capsys, "decode", "--code", f"{FIX}/smds_2_1_2_q8.code",
                       "--received", str(word), "--out", str(out_file),
                       "--format", "csv")
    assert rc == 0 and not err
    assert "status,success" in out
    assert load_received(out_file).symbols == load_received(word).symbols[:6]


def test_decode_word_file_with_inline_comments(tmp_path, capsys):
    word = tmp_path / "commented.word"
    with open(f"{FIX}/received_2_1_2_q8.word", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    word.write_text("\n".join(f"{ln}  # inline" for ln in lines) + "\n",
                    encoding="utf-8")
    rc, out, err = run(capsys, "decode", "--code", f"{FIX}/smds_2_1_2_q8.code",
                       "--received", str(word), "--format", "csv")
    assert rc == 0 and not err
    assert "status,success" in out
    assert 'v0,"1,2,0,0,7,4"' in out


@pytest.mark.parametrize("code, word, error", [
    ("smds_2_1_3_q32", "received_2_1_2_q8.word", "FIELD_MISMATCH"),
    ("smds_3_2_2_q16", "field GF(2^4; 1,1,0,0,1)\nreceived n=2 length=8\n"
                       "1,2\n3\n", "SHAPE_MISMATCH"),
    ("smds_2_1_2_q8", "field GF(2^3; 1,1,0,1)\nreceived n=3 length=8\n"
                      "1,2\n3\n4\n", "SHAPE_MISMATCH"),
], ids=["field", "n-too-small", "n-too-large"])
def test_decode_rejects_a_word_that_does_not_fit_the_code(tmp_path, capsys,
                                                          code, word, error):
    path = f"{FIX}/{word}"
    if "\n" in word:
        path = tmp_path / "bad.word"
        path.write_text(word)
    rc, out, err = run(capsys, "decode", "--code", f"{FIX}/{code}.code",
                       "--received", str(path))
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error[{error}]")


def test_simulate_compliant_and_adversarial(capsys):
    rc, out, _ = run(capsys, "simulate", "--code", f"{FIX}/smds_2_1_2_q8.code",
                     "--trials", "3", "--seed", "2", "--format", "csv")
    assert rc == 0
    assert "recovered,3/3" in out
    assert "flagged,0/3" in out
    rc, out, _ = run(capsys, "simulate", "--code", f"{FIX}/smds_2_1_2_q8.code",
                     "--trials", "3", "--seed", "2", "--adversarial",
                     "--format", "csv")
    assert rc == 0
    assert "flagged,3/3" in out


def test_paranoid_simulate_records_overloaded_windows(capsys):
    # a shortcut cycle whose window holds more than t errors has no match;
    # the cross-check records it as failed instead of aborting the run
    rc, out, err = run(capsys, "simulate", "--code",
                       f"{FIX}/smds_2_1_2_q8.code", "--trials", "20",
                       "--adversarial", "--paranoid", "--seed", "0")
    assert rc == 0 and not err
    assert "flagged,20/20" in out
    assert "no_solution(" in out


def test_simulate_rejects_negative_trials(capsys):
    rc, out, err = run(capsys, "simulate", "--code", f"{FIX}/smds_2_1_2_q8.code",
                       "--trials", "-3")
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[BAD_PARAMS]")


@pytest.mark.parametrize("trials", ["0", "1"])
@pytest.mark.parametrize("horizon", ["-3", "3"])
def test_simulate_rejects_a_horizon_below_one_window(capsys, trials, horizon):
    rc, out, err = run(capsys, "simulate", "--code", f"{FIX}/smds_2_1_2_q8.code",
                       "--trials", trials, "--horizon", horizon)
    assert rc == 1 and out == ""
    assert err == (f"error[BAD_PARAMS]: horizon {horizon} is shorter than "
                   "one window (M=4)\n")


@pytest.mark.parametrize("trials", ["0", "1"])
def test_simulate_rejects_a_horizon_above_the_length_cap(capsys, trials):
    rc, out, err = run(capsys, "simulate", "--code", f"{FIX}/smds_2_1_2_q8.code",
                       "--trials", trials, "--horizon", "70000")
    assert rc == 1 and out == ""
    assert err == ("error[BAD_PARAMS]: length 70001 above the supported "
                   "65536 blocks\n")


@pytest.mark.parametrize("trials", ["0", "1"])
def test_simulate_refuses_a_code_that_is_not_of_rate_n_minus_1(capsys, trials):
    rc, out, err = run(capsys, "simulate", "--code", f"{FIX}/smds_3_1_1_q4.code",
                       "--trials", trials)
    assert rc == 1 and out == ""
    assert err == "error[NOT_RATE_N_MINUS_1]: feedback decoding needs k = n-1\n"


@pytest.mark.parametrize("command", ["classify", "distances"])
@pytest.mark.parametrize("horizon", ["65536", "1000000000"])
def test_a_horizon_above_the_length_cap_is_refused(capsys, command, horizon):
    rc, out, err = run(capsys, command, "--code", f"{FIX}/smds_2_1_2_q8.code",
                       "--horizon", horizon)
    assert rc == 1 and out == ""
    assert err == (f"error[BAD_PARAMS]: length {int(horizon) + 1} above the "
                   "supported 65536 blocks\n")


def test_dual_stdout(capsys):
    rc, out, _ = run(capsys, "dual", "--code", f"{FIX}/smds_3_1_2_q16.code")
    assert rc == 0
    body = out[out.index("field GF("):]
    c = load_code_text(body)
    assert (c.n, c.k, c.delta) == (3, 2, 2)


def test_selftest_subset(capsys):
    rc, out, _ = run(capsys, "selftest", "--only", "laurent,griesmer",
                     "--format", "csv")
    assert rc == 0
    assert "laurent,PASS" in out
    assert "griesmer,PASS" in out
    assert "2/2 checks passed" in out


def test_selftest_rejects_unknown_check_names(capsys):
    rc, out, err = run(capsys, "selftest", "--only", "laurent,nope")
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[BAD_PARAMS]")
    assert "nope" in lines[0] and "griesmer" in lines[0]


def test_domain_error_single_line(capsys):
    rc, out, err = run(capsys, "classify", "--code", "missing.code")
    assert rc == 1 and out == ""
    assert err.startswith("error[") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field, params, header", [
    ("GF(2^x)", "delta=1", "H 1 3"),
    ("GF(a)", "delta=1", "H 1 3"),
    ("GF(4;1,x)", "delta=1", "H 1 3"),
    ("GF(5)", "delta=x", "H 1 3"),
    ("GF(5)", "delta=1", "H a b"),
])
def test_malformed_code_file_is_a_parse_error(tmp_path, capsys, field,
                                               params, header):
    path = tmp_path / "bad.code"
    path.write_text(f"field {field}\ncode n=3 k=2 {params}\n{header}\n"
                    "1\n1,1\n1,0,1\n")
    rc, out, err = run(capsys, "classify", "--code", str(path))
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[PARSE_ERROR]")


@pytest.mark.parametrize("argv", [
    ["classify", "--code"],
    ["decode", "--code", f"{FIX}/smds_2_1_2_q8.code", "--received"],
], ids=["code", "received"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + "field GF(2)\n".encode("utf-16-le"))
    rc, out, err = run(capsys, *argv, str(path))
    assert rc == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[PARSE_ERROR]")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["superregular"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["superregular", "--search", "3"])
    assert exc.value.code == 2
    # an option the subcommand does not read
    for argv in (["classify", "--code", f"{FIX}/smds_3_1_1_q4.code",
                  "--seed", "1"],
                 ["dual", "--code", f"{FIX}/smds_3_1_1_q4.code",
                  "--budget", "5"],
                 ["selftest", "--budget", "5"],
                 ["superregular", "--search", "3", "--field", "GF(5)",
                  "--mode", "seeded"],
                 ["superregular", "--check", "GF(2^3);1,1", "--general"],
                 ["superregular", "--check", "GF(2^3);1,1",
                  "--field", "GF(2^4)"],
                 ["superregular", "--check", "GF(2^3);1,1",
                  "--budget", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()

