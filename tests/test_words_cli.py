"""Word grammar and the command-line frontend."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import garside
from garside import words
from garside.artin import ArtinStructure, artin_structure
from garside.bkl import BKLStructure, bkl_structure
from garside.cli import _FLAGS, _parse_args, main
from garside.core import (
    Budgets,
    VerificationError,
    conjugate,
    delta_power,
    from_simple,
    identity_element,
    inverse,
    left_normal_form,
    multiply,
)
from garside.sliding import sliding_trajectory
from garside.words import (
    WordError,
    _parse_token,
    _render_word,
    element_to_json,
    parse_word,
    render_element,
    render_simple,
)

from conftest import random_element
from golden.make_corpus import CORPUS
from oracles import ReverseStructure, argparse_args, cyclic_sliding, word_to_simple


def el(st, ks):
    return left_normal_form(st, [(st.atom(k), 1) for k in ks])


def test_parse_sigma_letters():
    st = artin_structure(4)
    assert parse_word(st, "s1 s2 s3") == el(st, [1, 2, 3])
    assert parse_word(st, "s1 s1^-1") == identity_element(st)
    assert parse_word(st, "s2^-1") == inverse(el(st, [2]))


def test_parse_delta():
    for st in [artin_structure(4), bkl_structure(4)]:
        assert parse_word(st, "D") == delta_power(st, 1)
        assert parse_word(st, "D^-1") == delta_power(st, -1)
        assert parse_word(st, "D D^-1") == identity_element(st)


def test_parse_huge_delta_power_is_one_letter():
    for st in [artin_structure(4), bkl_structure(4)]:
        want = multiply(multiply(parse_word(st, "s1"), delta_power(st, 10**9)),
                        parse_word(st, "s2"))
        start = time.perf_counter()
        got = parse_word(st, "s1 D^1000000000 s2")
        assert time.perf_counter() - start < 1.0
        assert got == want
        assert parse_word(st, "D^-3 D^0 D^5") == delta_power(st, 2)


def test_parse_band_letters_dual():
    st = bkl_structure(4)
    assert parse_word(st, "a(3,1)") == from_simple(st, st.atom(3, 1))
    assert parse_word(st, "a(1,3)") == from_simple(st, st.atom(3, 1))
    assert parse_word(st, "a(2,1)") == parse_word(st, "s1")
    x = parse_word(st, "a(4,2) a(4,2)^-1")
    assert x == identity_element(st)


def test_parse_band_letters_classical_expand():
    # a_{t,s} maps to (s_{t-1} ... s_{s+1}) s_s (s_{s+1}^-1 ... s_{t-1}^-1)
    st = artin_structure(4)
    got = parse_word(st, "a(3,1)")
    want = left_normal_form(
        st, [(st.atom(2), 1), (st.atom(1), 1), (st.atom(2), -1)]
    )
    assert got == want
    assert multiply(parse_word(st, "a(3,1)"), parse_word(st, "a(3,1)^-1")) == \
        identity_element(st)
    assert parse_word(st, "a(2,1)") == el(st, [1])


def test_parse_sigma_in_dual_maps_to_band():
    st = bkl_structure(5)
    for k in range(1, 5):
        assert parse_word(st, f"s{k}") == from_simple(st, st.atom(k + 1, k))


def test_parse_permutation_literal():
    st = artin_structure(4)
    assert parse_word(st, "[4,3,2,1]") == delta_power(st, 1)
    assert parse_word(st, "[2,1,3,4]") == el(st, [1])
    assert parse_word(st, "[2,1,3,4] [2,1,3,4]") == el(st, [1, 1])


def test_parse_errors_carry_position():
    st = artin_structure(4)
    with pytest.raises(WordError) as exc:
        parse_word(st, "s1 bogus s2")
    assert exc.value.position == 2
    for literal in ("[1,2,2,4]", "[1,,2,3,4]", "[,4,3,2,1,]"):
        with pytest.raises(WordError) as exc:
            parse_word(st, f"s1 {literal}")
        assert exc.value.position == 2
    with pytest.raises(WordError):
        parse_word(st, "a(9,1)")
    with pytest.raises(WordError):
        parse_word(bkl_structure(4), "s7")
    with pytest.raises(WordError):
        parse_word(bkl_structure(4), "[1,2,3,4]")


def test_parse_error_messages_are_unchanged():
    cases = {
        "s0": "token 1: sigma index 0 out of range",
        "s9^-1": "token 1: sigma index 9 out of range",
        "a(1,9)": "token 1: band indices (9,1) out of range{}",
        "a(2,2)": "token 1: band indices (2,2) out of range{}",
        "a(0,3)": "token 1: band indices (3,0) out of range{}",
        "s1 a(5,4)^-1": "token 2: band indices (5,4) out of range{}",
    }
    for st, suffix in ((artin_structure(4), ""), (bkl_structure(4), " for bkl-4")):
        for text, message in cases.items():
            with pytest.raises(WordError) as exc:
                parse_word(st, text)
            assert str(exc.value) == message.format(suffix)


def canonical_tokens(n: int) -> list:
    """The (n-1)(n+2) spellings the token table may hold on n strands."""
    letters = [f"s{k}" for k in range(1, n)]
    letters += [f"a({t},{s})" for t in range(2, n + 1) for s in range(1, t)]
    return [t + e for t in letters for e in ("", "^-1")]


def test_token_table_reads_what_parse_token_reads(monkeypatch):
    """Each token read through the table gives the letters _parse_token
    gives it, on fresh structures, for canonical and other spellings."""
    monkeypatch.setattr(words, "left_normal_form", lambda st, letters: letters)
    rng = random.Random(20261028)
    for n in range(3, 9):
        for st in (ArtinStructure(n), BKLStructure(n)):
            canonical = canonical_tokens(n)
            others = ["1", "D", "D^-2", "D^3", "s01", "s001^-1", "a(1,3)", "a(03,1)^-1",
                      f"a(2,{n})^-1"]
            if isinstance(st, ArtinStructure):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                others.append("[" + ",".join(map(str, perm)) + "]")
            for _ in range(60):
                tokens = [rng.choice(canonical if rng.random() < 0.8 else others)
                          for _ in range(rng.randint(0, 24))]
                expected = [letter for idx, tok in enumerate(tokens, start=1)
                            for letter in _parse_token(st, tok, idx)]
                assert parse_word(st, " ".join(tokens)) == expected, tokens
                assert len(st._token_cache) <= (n - 1) * (n + 2)
            assert set(st._token_cache) <= set(canonical)
            parse_word(st, " ".join(canonical + others))
            assert sorted(st._token_cache) == sorted(canonical)


def test_token_table_keeps_error_positions():
    for st, bad, message in (
            (ArtinStructure(4), "s9^-1", "token 4: sigma index 9 out of range"),
            (BKLStructure(4), "a(9,1)", "token 4: band indices (9,1) out of range for bkl-4")):
        parse_word(st, "s1 s2 s1")
        with pytest.raises(WordError) as exc:
            parse_word(st, f"s1 s2 s1 {bad} s2")
        assert str(exc.value) == message
        assert sorted(st._token_cache) == ["s1", "s2"]


def test_render_round_trip(rng):
    for st in [artin_structure(4), artin_structure(5), bkl_structure(5)]:
        for _ in range(40):
            x = random_element(st, rng, length=rng.randint(0, 4))
            text = render_element(x)
            assert parse_word(st, text.replace(" . ", " ")) == x
    assert render_element(identity_element(artin_structure(3))) == "1"


def test_render_simple_forms():
    ast = artin_structure(4)
    assert render_simple(ast, ast.trivial) == "1"
    assert render_simple(ast, ast.atom(2)) == "s2"
    bst = bkl_structure(4)
    assert render_simple(bst, bst.atom(3, 1)) == "a(3,1)"


def test_words_on_a_structure_that_is_no_braid_structure():
    """The reverse structure of B_4 shares the simples of B_4 but is no
    braid structure: its sigma and band letters are refused at their
    token, and a simple renders as its repr."""
    rev = ReverseStructure(artin_structure(4))
    for text, what in (("s1", "sigma"), ("a(2,1)", "band")):
        with pytest.raises(WordError) as exc:
            parse_word(rev, text)
        assert exc.value.position == 1
        assert str(exc.value) == f"token 1: {what} letters need a braid structure"
    assert render_simple(rev, rev.atoms[0]) == repr((2, 1, 3, 4))


def test_cached_rendering_matches_uncached_on_every_simple():
    for n in (2, 3, 4, 5):
        for st in (ArtinStructure(n), BKLStructure(n)):
            for s in st.simples():
                assert render_simple(st, s) == _render_word(st, s)
                assert render_simple(st, s) == _render_word(st, s)
            assert len(st._render_cache) == st.simple_count()


def test_traj_renders_each_simple_once(capsys, monkeypatch):
    st = artin_structure(6)
    monkeypatch.setattr(st, "_render_cache", {})
    seen = []

    def counted(self, s, word=ArtinStructure.simple_to_word):
        seen.append(s)
        return word(self, s)

    monkeypatch.setattr(ArtinStructure, "simple_to_word", counted)
    rng = random.Random(9)
    word = " ".join(f"s{rng.randint(1, 5)}{rng.choice(['', '^-1'])}" for _ in range(120))
    code, out, _ = run_cli(capsys, ["--n", "6", "traj", word])
    assert code == 0
    # consecutive states share factors, so most simples recur
    assert out.count(" . ") > len(seen) > 0
    assert len(seen) == len(set(seen))


def test_element_to_json_shape():
    st = artin_structure(4)
    x = parse_word(st, "D^-1 s1 s2")
    d = element_to_json(x)
    assert set(d) == {"p", "factors"}
    assert isinstance(d["p"], int)
    assert all(isinstance(f, list) for f in d["factors"])
    json.dumps(d)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_nf(capsys):
    code, out, _ = run_cli(capsys, ["nf", "s1 s2 s3 s1 s2 s3"])
    assert code == 0
    assert out.strip() == "s1 s2 s3 s1 s2 . s3"
    code, out, _ = run_cli(capsys, ["nf", "s1 s1^-1"])
    assert code == 0
    assert out.strip() == "1"


def test_cli_nf_json(capsys):
    code, out, _ = run_cli(capsys, ["nf", "--format", "json", "s1 s2"])
    assert code == 0
    data = json.loads(out)
    assert data == {"p": 0, "factors": [[3, 1, 2, 4]]}
    st = artin_structure(4)
    assert data["factors"][0] == list(word_to_simple(st, [1, 2]))


def test_cli_global_flags_before_or_after_subcommand(capsys):
    a = run_cli(capsys, ["--structure", "bkl", "--n", "5", "nf", "s1 s2"])
    b = run_cli(capsys, ["nf", "--structure", "bkl", "--n", "5", "s1 s2"])
    assert a == b and a[0] == 0


def test_cli_main_keeps_no_flags_between_calls(capsys):
    # flags given to one main() call must not leak into the next
    plain = run_cli(capsys, ["nf", "s1 s2"])
    before = run_cli(capsys, ["--structure", "bkl", "--n", "5", "--format",
                              "json", "nf", "s1 s2"])
    after = run_cli(capsys, ["nf", "--structure", "bkl", "--n", "5",
                             "--format", "json", "s1 s2"])
    assert before == after and before[0] == 0 and before != plain
    assert run_cli(capsys, ["nf", "s1 s2"]) == plain
    assert plain == (0, "s1 s2\n", "")


ARGV_EDGE_CASES = [
    ["--n", "5", "nf", "--structure", "bkl", "s1"],
    ["--n", "3", "nf", "s1", "--n", "5", "--n", "6"],
    ["--n=5", "nf", "s1"],
    ["nf", "--format=json", "s1"],
    ["slide", "-k3", "s1"],
    ["rigid", "s1", "-k=2"],
    ["--struct", "bkl", "nf", "s1"],
    ["nf", "--struct=bkl", "s1"],
    ["--max", "5", "nf", "s1"],
    ["nf", "--max=5", "s1"],
    ["table", "--i", "1"],
    ["slide", "-k", "-1", "s1"],
    ["--max-set-size", "-1", "nf", "s1"],
    ["table", "--inf", "-2"],
    ["nf", "--", "s1 s2"],
    ["slide", "-k", "2", "--", "s1"],
    ["conj", "--", "s1", "s2"],
    ["nf", "--", "-1"],
    ["nf", "-1 s2"],
    ["--", "nf", "s1"],
    ["table", "--"],
    ["frobnicate", "s1"],
    ["--seed", "1", "nf", "s1"],
    ["nf", "--seed", "1", "s1"],
    ["--structure", "garside", "nf", "s1"],
    ["--n", "five", "nf", "s1"],
    ["slide", "-k", "1e3", "s1"],
    ["nf", "s1", "--n"],
    ["--n", "--format", "json", "nf", "s1"],
    ["nf"],
    ["conj", "s1"],
    ["nf", "s1", "s2"],
    ["table", "s1"],
    [],
    ["nf", "-k", "3", "s1"],
    ["-k", "3", "slide", "s1"],
    ["slide", "s1", "--inf", "1"],
]


def read_argv(parse, argv):
    """The attributes parse reads from argv, or the code it exits with."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code


def test_argv_reader_matches_argparse(capsys):
    """The table-driven reader gives the attributes the argparse tree gave,
    or exits 2 where it did, on every corpus invocation and edge case."""
    corpus = [entry["argv"] for entry in json.loads(CORPUS.read_text())]
    for argv in corpus + ARGV_EDGE_CASES:
        assert read_argv(_parse_args, argv) == read_argv(argparse_args, argv), argv
    assert read_argv(_parse_args, ["--n=5", "slide", "-k3", "--struct", "bkl", "s1"]) == {
        "command": "slide", "word": "s1", "k": 3, "structure": "bkl", "n": 5,
        "format": "text", "max_vertices": 100000, "max_set_size": 10**6,
        "max_trajectory": 10**6}
    assert read_argv(_parse_args, ["--max", "5", "nf", "s1"]) == 2
    # the budget flags default to the library's budgets
    assert tuple(Budgets()) == tuple(_FLAGS[f][2] for f in
                                     ("--max-vertices", "--max-set-size", "--max-trajectory"))


def test_argv_reader_matches_argparse_on_random_argv(capsys):
    pool = ["nf", "slide", "conj", "table", "rigid", "--n", "5", "-1", "-2.5", "--structure",
            "bkl", "--struct", "--max", "--max-v", "--max-vertices=3", "--inf", "--i", "-k",
            "-k3", "-k=2", "--", "s1 s2", "s1", "-x", "--format=json", "--n=4", "--seed", "",
            "-", "-h", "--help", "--he", "-1 s2", "-k 3", "--s=artin", "---"]
    rng = random.Random(20261029)
    for _ in range(3000):
        argv = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        assert read_argv(_parse_args, argv) == read_argv(argparse_args, argv), argv


def test_cli_help_lists_every_command(capsys):
    for argv in (["-h"], ["--help"], ["--n", "5", "--he"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: garside")
        for command in ("nf", "slide", "traj", "sc", "scg", "conj", "table", "rigid"):
            assert f"\n  {command} " in out, command
    with pytest.raises(SystemExit) as exc:
        main(["rigid", "-h"])
    assert exc.value.code == 0
    assert "  -k N " in capsys.readouterr().out


def test_cli_help_with_a_value_is_a_usage_error(capsys):
    for argv in (["-h=x"], ["--help=x"], ["nf", "-h=x"], ["nf", "--help=x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument -h/--help: ignored explicit argument 'x'" in err, argv


def test_cli_usage_errors_exit_2_with_usage_on_stderr(capsys):
    for argv in (["--n", "x", "nf", "s1"], ["frobnicate"], ["nf"], ["nf", "-k", "3", "s1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: garside") and "error: " in err, argv


def test_cli_slide(capsys):
    st = artin_structure(4)
    code, out, _ = run_cli(capsys, ["slide", "s3 s2 s1", "-k", "1"])
    assert code == 0
    assert parse_word(st, out.strip()) == parse_word(st, "s1 s3 s2")
    # a circuit element is fixed by sliding
    code, out, _ = run_cli(capsys, ["slide", "s2 s1 s3", "-k", "7"])
    assert parse_word(st, out.strip()) == parse_word(st, "s2 s1 s3")


def test_cli_slide_k_is_k_fold_sliding(capsys):
    """slide -k K reads s^K(x) off the trajectory of x; it must equal K
    slidings one at a time, for K across the transient and three periods."""
    rng = random.Random(20261020)
    shapes = set()
    for st, flags in ((artin_structure(5), ["--n", "5"]),
                      (bkl_structure(5), ["--structure", "bkl", "--n", "5"])):
        letters = ([f"s{k}" for k in range(1, 5)] if isinstance(st, ArtinStructure)
                   else [f"a({t},{u})" for t in range(2, 6) for u in range(1, t)])
        for _ in range(6):
            word = " ".join(rng.choice(letters) + rng.choice(["", "^-1"]) for _ in range(12))
            x = parse_word(st, word)
            traj = sliding_trajectory(x)
            shapes.add((traj.entry_index > 0, traj.period > 1))
            y = x
            for k in range(traj.entry_index + 3 * traj.period + 1):
                code, out, _ = run_cli(capsys, [*flags, "slide", word, "-k", str(k)])
                assert (code, out) == (0, render_element(y) + "\n")
                y = cyclic_sliding(y)
    # transients and periods longer than one state are both covered
    assert {(True, True), (False, True), (True, False)} <= shapes


def test_cli_traj(capsys):
    code, out, _ = run_cli(capsys, ["traj", "--format", "json", "s3 s2 s1"])
    assert code == 0
    data = json.loads(out)
    assert data["entry_index"] == 1
    assert data["period"] == 1
    assert len(data["states"]) == data["entry_index"] + data["period"]
    assert len(data["prefixes"]) == len(data["states"])


def test_cli_sc(capsys):
    code, out, _ = run_cli(capsys, ["sc", "s1 s2 s3"])
    assert code == 0
    st = artin_structure(4)
    got = {parse_word(st, line) for line in out.strip().splitlines()}
    assert got == {parse_word(st, "s1 s3 s2"), parse_word(st, "s2 s1 s3")}


def test_cli_scg(capsys):
    code, out, _ = run_cli(capsys, ["scg", "--format", "json", "s1 s2 s3"])
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 2
    for arrow in data["arrows"]:
        assert set(arrow) == {"source", "conjugator", "target"}
        assert 0 <= arrow["source"] < 2 and 0 <= arrow["target"] < 2


def test_cli_conj_yes(capsys):
    code, out, _ = run_cli(capsys, ["conj", "s1 s2 s3", "s2 s1 s3"])
    assert code == 0
    assert out.startswith("YES ")
    witness = out.strip()[4:]
    st = artin_structure(4)
    c = parse_word(st, witness.replace(" . ", " "))
    assert conjugate(parse_word(st, "s1 s2 s3"), c) == parse_word(st, "s2 s1 s3")


def test_cli_conj_no(capsys):
    code, out, _ = run_cli(capsys, ["--n", "3", "conj", "s1", "s1 s2"])
    assert code == 1
    assert out.strip() == "NO"


def test_cli_conj_json_answers_parse(capsys):
    """Both answers of conj --format json are JSON: the witness of a YES
    conjugates x to y, and a NO is {"conjugate": false} with exit code 1."""
    st = artin_structure(4)
    code, out, _ = run_cli(capsys, ["conj", "--format", "json", "s1 s2 s3", "s2 s1 s3"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"conjugate", "witness"} and data["conjugate"] is True
    w = data["witness"]
    c = multiply(delta_power(st, w["p"]),
                 left_normal_form(st, [(tuple(f), 1) for f in w["factors"]]))
    assert element_to_json(c) == w
    assert conjugate(parse_word(st, "s1 s2 s3"), c) == parse_word(st, "s2 s1 s3")
    code, out, _ = run_cli(capsys, ["--n", "3", "conj", "--format", "json", "s1", "s1 s2"])
    assert code == 1
    assert json.loads(out) == {"conjugate": False}


def test_cli_conj_no_from_summit_invariants_builds_no_graph(capsys, monkeypatch):
    """Pairs whose circuit representatives differ in inf or canonical
    length are answered NO before any graph is walked: the first two
    agree in exponent sum and cycle type, so only the summit invariants
    tell them apart, and the rest differ already in those."""
    import garside.circuits
    from garside.circuits import _class_invariants

    for structure, x, y in (("artin", "s1", "s2 s2 s1^-1"),
                            ("bkl", "a(2,1) a(4,3) a(2,1)^-1", "a(3,1) a(3,2)^-1 a(3,1)")):
        st = artin_structure(4) if structure == "artin" else bkl_structure(4)
        assert _class_invariants(parse_word(st, x)) == _class_invariants(parse_word(st, y))

    def no_graph(*args, **kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(garside.circuits, "compute_scg", no_graph)
    for argv in (["conj", "s1", "s2 s2 s1^-1"],
                 ["--structure", "bkl", "conj", "a(2,1) a(4,3) a(2,1)^-1",
                  "a(3,1) a(3,2)^-1 a(3,1)"],
                 ["conj", "s1 s2 s3", "s1 s1"],
                 ["conj", "D s1", "s1"],
                 ["--n", "5", "conj", "s1 s2^-1 s3 s4", "D^-1 s2 s3"],
                 ["--structure", "bkl", "conj", "a(3,1)", "a(3,1) a(3,1)"],
                 ["--structure", "bkl", "conj", "D^2 a(4,2)", "D a(4,2)"],
                 ["--structure", "bkl", "--n", "5", "conj", "a(5,2) a(3,1)^-1",
                  "a(4,1) a(5,3) a(2,1)"],
                 # nothing is enumerated, so the simples budget does not apply
                 ["--n", "11", "conj", "s1 s2", "s1 s1"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "NO\n", ""), argv


def test_cli_conj_vertex_budget(capsys):
    # equal class and summit invariants and not conjugate: a NO needs the
    # whole graph
    argv = ["--n", "4", "conj", "--max-vertices", "1", "s1 s1 s3^-1", "s1 s1 s2^-1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert "budget" in err.lower()
    del argv[3:5]
    assert run_cli(capsys, argv)[:2] == (1, "NO\n")
    # y's circuit is reached before the budget is
    code, out, _ = run_cli(
        capsys, ["--n", "4", "conj", "--max-vertices", "1", "s1 s2 s3", "s1 s2 s3"])
    assert (code, out) == (0, "YES 1\n")


def test_cli_conj_yes_at_a_tau_image_under_a_vertex_cap(capsys):
    """The walk stops at the first vertex on y's circuit or a
    Delta-conjugate of it, here before y's representative, which the
    walk reaches only at its third vertex."""
    x = "s1 s3 s2^-1 s3^-1 s2^-1 s1^-1"
    y = "s2 s2 s1 s1 s3 s2^-1 s3^-1 s2^-1 s1^-1 s1^-1 s2^-1 s2^-1"
    code, out, _ = run_cli(capsys, ["--n", "4", "conj", "--max-vertices", "1", x, y])
    assert code == 0 and out.startswith("YES ")
    st = artin_structure(4)
    c = parse_word(st, out.strip()[4:].replace(" . ", " "))
    assert conjugate(parse_word(st, x), c) == parse_word(st, y)


def test_cli_zero_budgets_count_the_first_element(capsys):
    """A cap of 0 admits nothing, not even the representative, as a
    trajectory cap of 0 admits no start state."""
    for argv in (["--n", "3", "sc", "--max-vertices", "0", "s1 s2 s1"],
                 ["--n", "3", "scg", "--max-vertices", "0", "s1 s2 s1"],
                 ["--n", "3", "conj", "--max-vertices", "0", "s1", "s1"],
                 ["--n", "3", "traj", "--max-trajectory", "0", "s1 s2 s1"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert "budget" in err.lower(), argv
    code, out, _ = run_cli(capsys, ["--n", "3", "sc", "--max-vertices", "1", "s1 s2 s1"])
    assert (code, out) == (0, "D\n")


def test_cli_trajectory_budget_message_names_the_cap(capsys):
    """The message of an exhausted trajectory budget is one short line that
    names the cap, however long the element: here a 300-letter B_8 word."""
    rng = random.Random(20261019)
    word = " ".join(f"s{rng.randint(1, 7)}{rng.choice(['', '^-1'])}" for _ in range(300))
    code, out, err = run_cli(capsys, ["--n", "8", "--max-trajectory", "0", "traj", word])
    assert (code, out) == (3, "")
    assert err == "budget exhausted: sliding trajectory exceeded 0 states\n"


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, ["nf", "wat"])
    assert code == 2
    assert "token 1" in err
    code, _, err = run_cli(capsys, ["--n", "1", "nf", "s1"])
    assert code == 2


def test_cli_flag_errors_name_no_token(capsys):
    code, out, err = run_cli(capsys, ["--max-set-size", "-1", "nf", "s1"])
    assert (code, out, err) == (
        2, "", "error: --max-set-size must be non-negative, got -1\n")
    for argv in (["--n", "1", "nf", "s1"],
                 ["--max-vertices", "-1", "nf", "s1"],
                 ["--max-trajectory", "-2", "nf", "s1"],
                 ["slide", "s1", "-k", "-1"],
                 ["rigid", "s1", "-k", "-1"],
                 ["--n", "2", "table"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "token" not in err, argv


def test_cli_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, ["sc", "--max-vertices", "1", "s1 s2 s3"])
    assert code == 3
    assert "budget" in err.lower()


def test_cli_refuses_too_many_simples_before_enumerating(capsys, monkeypatch):
    """`table` walks every simple, so B_11 (11! of them) is refused up
    front; `conj` searches its arrows upward from the minimal summit
    conjugators and answers without enumerating the simples."""
    st = artin_structure(11)

    def enumerate_simples():
        raise AssertionError("simples enumerated")

    monkeypatch.setitem(vars(st), "simples", enumerate_simples)
    code, out, _ = run_cli(capsys, ["--n", "11", "conj", "s1 s2", "s2 s3"])
    assert (code, out) == (0, "YES s3 s2 s1\n")
    code, _, err = run_cli(capsys, ["--n", "11", "table"])
    assert code == 3
    assert "simple elements" in err


def test_cli_refuses_huge_n_before_building_the_structure(capsys, monkeypatch):
    import garside.cli

    def build(n):
        raise AssertionError("structure built")

    monkeypatch.setattr(garside.cli, "artin_structure", build)
    monkeypatch.setattr(garside.cli, "bkl_structure", build)
    # atom tables of (n-1) n and n^2 (n-1) / 2 entries against the default
    # --max-set-size of 10^6
    for argv in (["--n", "1001", "nf", "1"],
                 ["--structure", "bkl", "--n", "127", "nf", "1"],
                 ["--structure", "bkl", "--n", "3000", "nf", "1"],
                 ["--n", "11", "--max-set-size", "100", "nf", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert "atom table" in err


def test_cli_failed_reverification_exit_code(capsys, monkeypatch):
    """A composed conjugator with one atom too many is caught by the one
    check of the answer, in solve_csp itself."""
    import garside.circuits
    from garside.circuits import solve_csp

    compose = garside.circuits.left_normal_form

    def corrupted(st, word):
        return compose(st, [*word, (st.atoms[0], 1)])

    monkeypatch.setattr(garside.circuits, "left_normal_form", corrupted)
    code, out, err = run_cli(capsys, ["conj", "s1 s2 s3", "s2 s1 s3"])
    assert code == 4
    assert out == ""
    assert "internal check failed" in err
    st = artin_structure(4)
    with pytest.raises(VerificationError, match="does not conjugate"):
        solve_csp(parse_word(st, "s1 s2 s3"), parse_word(st, "s2 s1 s3"))


def test_cli_sigma_index_out_of_range_is_input_error(capsys):
    code, out, err = run_cli(capsys, ["--n", "4", "nf", "s9"])
    assert code == 2
    assert out == ""
    assert "token 1" in err


def test_cli_dual_simple_fault_exit_code(capsys, monkeypatch):
    import garside.bkl

    # every composed permutation becomes the crossing (1 3)(2 4); the word
    # below is one simple, so its normal form takes a product whatever the
    # caches hold
    monkeypatch.setattr(garside.bkl, "_compose", lambda a, b: (3, 4, 1, 2))
    code, out, err = run_cli(capsys, ["--structure", "bkl", "nf", "a(3,2) a(2,1)"])
    assert code == 4
    assert out == ""
    assert "crossing partition" in err


def test_cli_unexpected_error_exit_code(capsys, monkeypatch):
    import garside.cli

    def broken_solver(x, y, budgets):
        raise KeyError("boom")

    monkeypatch.setattr(garside.cli, "solve_csp", broken_solver)
    code, out, err = run_cli(capsys, ["conj", "s1 s2", "s2 s1"])
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1 and "internal error: KeyError" in err


def test_cli_closed_stdout_keeps_the_exit_code(capsys, monkeypatch):
    """A reader that leaves (`garside ... | head`) is no program fault: the
    answer's exit code stands, stderr stays empty, and stdout is pointed at
    devnull so the flush at interpreter exit cannot fail."""
    read_end, write_end = os.pipe()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return write_end

    try:
        for argv, code in ((["conj", "s1 s2", "s2 s1"], 0), (["conj", "s1", "s1 s1"], 1)):
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == code
            monkeypatch.undo()
            assert capsys.readouterr() == ("", "")
            assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)


def test_cli_pipe_closed_by_the_reader_exits_0():
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "garside.cli", "--n", "5", "rigid", "s1 s2^-1 s3 s4 s2",
         "-k", "300"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # the output is about 450 kB, more than a pipe holds
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


# the peak RSS of one child, the CLI call, read by a small parent: a child
# started from the test process would take that process's peak as its start
_PEAK_RSS = ("import resource, subprocess, sys; "
             "subprocess.run([sys.executable, '-m', 'garside.cli'] + sys.argv[1:], "
             "stdout=subprocess.DEVNULL, check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def _peak_rss(argv) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_cli_json_rigid_costs_memory_like_the_text_form():
    # the JSON array is written one prefix product at a time: holding it as
    # Python lists took 2.6 times the text form's peak at -k 800
    argv = ["--n", "5", "rigid", "s1 s2^-1 s3 s4 s2", "-k", "800"]
    assert _peak_rss(["--format", "json"] + argv) < 1.25 * _peak_rss(argv)


def test_cli_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "nf", "s1"])
    assert exc.value.code == 2


def test_cli_table_csv(capsys):
    code, out, _ = run_cli(capsys, ["table", "--n", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("structure,n,i,classes,max_sss,max_sc,max_ratio,"
                        "cmean_sss,cmean_sc,cmean_ratio,"
                        "emean_sss,emean_sc,emean_ratio")
    assert lines[1].startswith("artin,4,0,9,")


def test_cli_table_default_format_is_csv_like(capsys):
    a = run_cli(capsys, ["table", "--n", "4"])
    b = run_cli(capsys, ["table", "--n", "4", "--format", "csv"])
    assert a == b


def test_cli_rigid(capsys):
    code, out, _ = run_cli(capsys, ["rigid", "s1 s2 s1 s3 s2 s1", "-k", "2"])
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first in ("rigid", "not rigid")
    code, out, _ = run_cli(capsys, ["rigid", "s3 s2 s1", "-k", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "not rigid"
    assert lines[1] == "P_0: 1"
    assert len(lines) == 5


def test_cli_rigid_chain_is_bounded(capsys):
    """The prefix products of rigid -k hold about k^2 / 4 factors here; past
    --max-set-size of them the command exits 3 before printing anything."""
    argv = ["--n", "5", "rigid", "s1 s2^-1 s3 s4 s2", "-k", "100000"]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert "factors" in err
    code, out, _ = run_cli(capsys, argv[:-1] + ["100", "--max-set-size", "2550"])
    assert code == 0 and len(out.splitlines()) == 102
    code, out, _ = run_cli(capsys, argv[:-1] + ["100", "--max-set-size", "2549"])
    assert code == 3 and out == ""


def test_cli_slidings_are_bounded(capsys):
    """-k of slide and rigid is refused when negative (bad input) or past
    --max-trajectory (budget), before any sliding is done.  Both read the
    trajectory, so one longer than --max-trajectory exits 3 whatever -k is:
    that of s3 s2 s1 has 2 states."""
    for command in ("slide", "rigid"):
        code, out, err = run_cli(
            capsys, [command, "s3 s2 s1", "-k", "1", "--max-trajectory", "1"])
        assert code == 3 and out == ""
        assert "trajectory" in err
        code, _, _ = run_cli(
            capsys, [command, "s3 s2 s1", "-k", "1", "--max-trajectory", "2"])
        assert code == 0
        code, out, err = run_cli(capsys, [command, "s3 s2 s1", "-k", "-1"])
        assert code == 2 and out == ""
        assert "-k" in err
        code, out, err = run_cli(
            capsys, [command, "s3 s2 s1", "-k", "11", "--max-trajectory", "10"])
        assert code == 3 and out == ""
        assert "budget" in err.lower()
        code, _, _ = run_cli(
            capsys, [command, "s3 s2 s1", "-k", "10", "--max-trajectory", "10"])
        assert code == 0


def test_cli_refuses_negative_budgets(capsys):
    """A negative budget is bad input (exit 2), not an exhausted budget."""
    for flag in ("--max-vertices", "--max-set-size", "--max-trajectory"):
        for argv in (["nf", "s1"], ["table", "--n", "4"]):
            code, out, err = run_cli(capsys, [flag, "-1", *argv])
            assert (code, out) == (2, "")
            assert flag in err and len(err.splitlines()) == 1


def test_cli_table_refuses_two_strands_before_enumerating(capsys, monkeypatch):
    """B_2 has no simple strictly between 1 and Delta, so it has no
    length-1 class to report."""
    for structure, st in (("artin", artin_structure(2)), ("bkl", bkl_structure(2))):
        def enumerate_simples():
            raise AssertionError("simples enumerated")

        monkeypatch.setitem(vars(st), "simples", enumerate_simples)
        code, out, err = run_cli(capsys, ["--structure", structure, "--n", "2", "table"])
        assert (code, out) == (2, "")
        assert "--n 3" in err and len(err.splitlines()) == 1


def test_cli_deterministic_output(capsys):
    for argv in (["sc", "s1 s2 s3"], ["scg", "s1 s2 s3"],
                 ["table", "--n", "4"]):
        assert run_cli(capsys, list(argv)) == run_cli(capsys, list(argv))
