"""Word grammar and the command-line frontend."""

import json
import random
import time

import pytest

from garside.artin import ArtinStructure, artin_structure
from garside.bkl import BKLStructure, bkl_structure
from garside.cli import _build_parser, main
from garside.core import (
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
    _render_word,
    element_to_json,
    parse_word,
    render_element,
    render_simple,
)

from conftest import random_element
from oracles import cyclic_sliding, word_to_simple


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
    with pytest.raises(WordError):
        parse_word(st, "[1,2,2,4]")
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
    # the parser is built once per process and reused by every main() call
    plain = run_cli(capsys, ["nf", "s1 s2"])
    before = run_cli(capsys, ["--structure", "bkl", "--n", "5", "--format",
                              "json", "nf", "s1 s2"])
    after = run_cli(capsys, ["nf", "--structure", "bkl", "--n", "5",
                             "--format", "json", "s1 s2"])
    assert before == after and before[0] == 0 and before != plain
    assert run_cli(capsys, ["nf", "s1 s2"]) == plain
    assert plain == (0, "s1 s2\n", "")
    assert _build_parser() is _build_parser()


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


def test_cli_conj_no_from_summit_invariants_builds_no_graph(capsys, monkeypatch):
    """Pairs whose circuit representatives differ in inf or canonical
    length are answered NO before any graph is walked."""
    import garside.circuits

    def no_graph(*args, **kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(garside.circuits, "compute_scg", no_graph)
    for argv in (["conj", "s1 s2 s3", "s1 s1"],
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
    # equal summit invariants and not conjugate: a NO needs the whole graph
    code, out, err = run_cli(
        capsys, ["--n", "4", "conj", "--max-vertices", "1", "s1 s2 s3", "s1 s2"])
    assert code == 3 and out == ""
    assert "budget" in err.lower()
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
    st = artin_structure(11)

    def enumerate_simples():
        raise AssertionError("simples enumerated")

    monkeypatch.setattr(st, "simples", enumerate_simples)
    code, _, err = run_cli(capsys, ["--n", "11", "conj", "s1 s2", "s2 s3"])
    assert code == 3
    assert "simple elements" in err
    code, _, _ = run_cli(capsys, ["--n", "11", "table"])
    assert code == 3


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
    check of the answer."""
    from garside.circuits import SlidingCircuitsGraph

    composed = SlidingCircuitsGraph.conjugator_to

    def corrupted(graph, v):
        c = composed(graph, v)
        return multiply(c, from_simple(c.structure, c.structure.atoms[0]))

    monkeypatch.setattr(SlidingCircuitsGraph, "conjugator_to", corrupted)
    code, out, err = run_cli(capsys, ["conj", "s1 s2 s3", "s2 s1 s3"])
    assert code == 4
    assert out == ""
    assert "internal check failed" in err


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
    --max-trajectory (budget), before any sliding is done."""
    for command in ("slide", "rigid"):
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

        monkeypatch.setattr(st, "simples", enumerate_simples)
        code, out, err = run_cli(capsys, ["--structure", structure, "--n", "2", "table"])
        assert (code, out) == (2, "")
        assert "--n 3" in err and len(err.splitlines()) == 1


def test_cli_deterministic_output(capsys):
    for argv in (["sc", "s1 s2 s3"], ["scg", "s1 s2 s3"],
                 ["table", "--n", "4"]):
        assert run_cli(capsys, list(argv)) == run_cli(capsys, list(argv))
