import argparse

import pytest

from cideals import Instance, attach_complementation, build_poset, emit_instance, substructures
from cideals.cli import main, make_parser
from conftest import boolean_lattice


@pytest.fixture(scope="module")
def instdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("insts")
    assert main(["corpus", "--emit", str(path)]) == 0
    return path


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(instdir, capsys):
    code, out, _ = run_cli(capsys, ["analyze", str(instdir / "fig1.poset")])
    assert code == 0
    assert "instance fig1" in out
    assert "COUNTEREXAMPLE" not in out


def test_analyze_machine(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["analyze", str(instdir / "fig1.poset"), "--format", "machine"]
    )
    assert code == 0
    assert out.startswith("report: fig1\n")
    assert "theorem: tag=LEM_BOOLEAN" in out


def test_format_flag_works_globally(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["--format", "machine", "analyze", str(instdir / "fig1.poset")]
    )
    assert code == 0
    assert out.startswith("report: fig1\n")


def test_ideals_c_ideal_class(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["ideals", str(instdir / "fig1.poset"), "--class", "c-ideal"]
    )
    assert code == 0
    assert out.splitlines() == ["L(0) = {0}", "L(b) = {0,b}", "L(1) = {0,a,b,c,1}"]


def test_filters_ultrafilter_class(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["filters", str(instdir / "fig2b.poset"), "--class", "ultrafilter"]
    )
    assert code == 0
    assert [line.split(" = ")[0] for line in out.splitlines()] == ["U(f)", "U(a)", "U(b)"]


def test_filters_machine_rows(instdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["filters", str(instdir / "fig2b.poset"), "--class", "prime", "--format", "machine"],
    )
    assert code == 0
    assert out.startswith("filter: set={f,1} ")
    assert "prime=true" in out


def test_check_all_ok(instdir, capsys):
    code, out, _ = run_cli(capsys, ["check", str(instdir / "fig3.poset")])
    assert code == 0
    assert "COUNTEREXAMPLE" not in out
    assert out.count("\n") == 19


def test_check_explicit_unmet_statement_exits_4(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["check", str(instdir / "fig2a.poset"), "--statement", "THM_SEP1"]
    )
    assert code == 4
    assert "not applicable" in out
    assert "c-condition" in out


def test_check_explicit_met_statement_exits_0(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["check", str(instdir / "fig2b.poset"), "--statement", "THM_SEP1,THM5_I_II"]
    )
    assert code == 0
    assert out.count("verified") == 2


def test_check_unknown_tag_is_usage_error(instdir, capsys):
    code, _, err = run_cli(capsys, ["check", str(instdir / "fig1.poset"), "--statement", "NOPE"])
    assert code == 1
    assert "usage error" in err


def test_separate_second_fig4(instdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["separate", str(instdir / "fig4.poset"), "--ideal", "e'", "--filter", "b", "--mode", "second"],
    )
    assert code == 0
    assert "J = {0,a,c,d,e',b'}" in out and "L(b')" in out


def test_separate_failure_exit_4(instdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["separate", str(instdir / "fig3.poset"), "--ideal", "a", "--filter", "d", "--mode", "second"],
    )
    assert code == 4
    assert "NotDistributive" in out


def test_separate_set_literals(instdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["separate", str(instdir / "fig2b.poset"), "--ideal", "{0,a}", "--filter", "U(f)"],
    )
    assert code == 0
    assert "J = {0,a,b,c,d,e}" in out


def test_separate_malformed_ideal_exit_3(instdir, capsys):
    code, _, err = run_cli(
        capsys,
        ["separate", str(instdir / "fig1.poset"), "--ideal", "{0,a,b}", "--filter", "b"],
    )
    assert code == 3
    assert "not an ideal" in err


def test_dot_highlight(instdir, capsys):
    code, out, _ = run_cli(
        capsys, ["dot", str(instdir / "fig3.poset"), "--highlight", "L(a')"]
    )
    assert code == 0
    assert out.count("style=filled") == 5
    assert out.count("->") == 18


def test_corpus_lists_divergence(capsys):
    code, out, _ = run_cli(capsys, ["corpus"])
    assert code == 0
    assert "fig1: 5 elements" in out
    assert "DIVERGES prime_filters" in out


def test_gen_round_trips(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["gen", "--size", "6", "--seed", "4"])
    assert code == 0
    target = tmp_path / "gen.poset"
    target.write_text(out)
    code, listing, _ = run_cli(capsys, ["ideals", str(target)])
    assert code == 0 and listing


def test_gen_requires_constraints(capsys):
    code, out, _ = run_cli(
        capsys, ["gen", "--size", "8", "--seed", "2", "--require", "antitone,involution"]
    )
    if code == 0:
        assert "comp:" in out
    else:
        assert code == 4


def test_gen_bad_size_exit_3(capsys):
    code, _, err = run_cli(capsys, ["gen", "--size", "25", "--seed", "1"])
    assert code == 3
    assert "between 2 and 24" in err


def test_usage_errors_exit_1(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["ideals"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["ideals", "x.poset", "--class", "bogus"])
    assert code == 1


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, ["analyze", "/nonexistent/nowhere.poset"])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["analyze", "check", "ideals", "filters", "dot"])
def test_undecodable_file_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "latin1.poset"
    bad.write_bytes("name: x\nelements: 0 \u00e9 1\n".encode("latin-1"))
    code, out, err = run_cli(capsys, [command, str(bad)])
    assert code == 2 and not out
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9")


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("name: x\nelements: a b\nle: a b\n")
    code, _, err = run_cli(capsys, ["analyze", str(bad)])
    assert code == 2
    assert "line 3" in err


def test_cycle_exit_3(tmp_path, capsys):
    bad = tmp_path / "cycle.poset"
    bad.write_text("name: x\nelements: p q\nle: p < q\nle: q < p\n")
    code, _, err = run_cli(capsys, ["analyze", str(bad)])
    assert code == 3


def test_axiom_violation_exit_3(tmp_path, capsys):
    bad = tmp_path / "badcomp.poset"
    bad.write_text(
        "name: x\nelements: 0 a 1\nle: 0 < a\nle: a < 1\n"
        "comp: 0 -> 1\ncomp: a -> a\ncomp: 1 -> 0\n"
    )
    code, _, err = run_cli(capsys, ["analyze", str(bad)])
    assert code == 3


def test_poset_only_refusals(tmp_path, capsys):
    plain = tmp_path / "plain.poset"
    plain.write_text("name: chain\nelements: 0 m 1\nle: 0 < m\nle: m < 1\n")
    code, out, _ = run_cli(capsys, ["analyze", str(plain)])
    assert code == 0 and "statements" not in out
    code, _, err = run_cli(capsys, ["check", str(plain)])
    assert code == 3 and "no comp section" in err
    code, _, err = run_cli(capsys, ["ideals", str(plain), "--class", "c-ideal"])
    assert code == 3
    code, out, _ = run_cli(capsys, ["ideals", str(plain), "--class", "maximal"])
    assert code == 0 and out.splitlines() == ["L(m) = {0,m}"]


def _flags(parser):
    return sorted(s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help"))


def test_flag_inventory():
    # every option of the command line, by parser, -h/--help aside: a knob
    # added or dropped edits this list
    parser = make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {"": _flags(parser), **{name: _flags(cmd) for name, cmd in commands.choices.items()}}
    assert got == {
        "": ["--format"],
        "analyze": ["--format"],
        "ideals": ["--class", "--format"],
        "filters": ["--class", "--format"],
        "check": ["--format", "--statement"],
        "separate": ["--filter", "--format", "--ideal", "--mode"],
        "dot": ["--format", "--highlight"],
        "corpus": ["--emit", "--format"],
        "gen": ["--density", "--format", "--require", "--seed", "--size"],
    }
    assert sum(map(len, got.values())) == 21


HARNESS_COMMANDS = [["analyze", "fig1.poset"], ["check", "fig1.poset"]]
OTHER_COMMANDS = [
    ["ideals", "fig1.poset"],
    ["filters", "fig1.poset"],
    ["separate", "fig1.poset", "--ideal", "a", "--filter", "b"],
    ["dot", "fig1.poset"],
    ["corpus"],
    ["gen", "--size", "6", "--seed", "4"],
]


def _argv(instdir, argv):
    return [str(instdir / a) if a.endswith(".poset") else a for a in argv]


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "argv", HARNESS_COMMANDS + OTHER_COMMANDS, ids=lambda argv: argv[0]
)
def test_budget_must_be_positive(instdir, capsys, argv, budget):
    # the walk's cap is fixed: --budget is an unknown flag on every command
    code, out, err = run_cli(capsys, _argv(instdir, argv) + ["--budget", budget])
    assert code == 1 and "usage error" in err and not out
    assert f"unrecognized arguments: --budget {budget}" in err


@pytest.mark.parametrize("argv", HARNESS_COMMANDS, ids=lambda argv: argv[0])
def test_seed_is_unknown_on_analyze_and_check(instdir, capsys, argv):
    code, out, err = run_cli(capsys, _argv(instdir, argv) + ["--seed", "1"])
    assert code == 1
    assert "usage error: unrecognized arguments: --seed 1" in err
    assert not out


def test_filter_labels_name_the_least_element(instdir, capsys):
    code, out, _ = run_cli(capsys, ["filters", str(instdir / "fig1.poset")])
    assert code == 0
    assert out.splitlines() == [
        "U(1) = {1}",
        "U(a) = {a,1}",
        "U(b) = {b,1}",
        "U(c) = {c,1}",
        "U(0) = {0,a,b,c,1}",
    ]
    code, out, _ = run_cli(capsys, ["analyze", str(instdir / "fig1.poset")])
    assert code == 0
    rows = out.split("filters (5):\n")[1].splitlines()[:5]
    assert [row.split()[0] for row in rows] == ["U(1)", "U(a)", "U(b)", "U(c)", "U(0)"]
    assert rows[4].split()[1] == "{0,a,b,c,1}"
    # the machine field still names the ideal reading of the whole poset
    code, out, _ = run_cli(capsys, ["filters", str(instdir / "fig1.poset"), "--format", "machine"])
    assert out.splitlines()[4].startswith("filter: set={0,a,b,c,1} proper=false principal=1 ")


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_corpus_emit_to_unusable_path_is_usage_error(tmp_path, capsys, target):
    (tmp_path / "file").write_text("taken\n")
    path = tmp_path / target
    code, out, err = run_cli(capsys, ["corpus", "--emit", str(path)])
    assert code == 1 and not out
    assert err.startswith(f"usage error: cannot write instances to {path}: ")
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text() == "taken\n"


def test_gen_unknown_constraint_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, ["gen", "--size", "6", "--seed", "4", "--require", "antitone,foo"]
    )
    assert code == 1
    assert "usage error" in err and "unknown constraint 'foo'" in err
    assert not out


@pytest.mark.parametrize("density", ["nan", "5", "-1", "1.01", "inf"])
def test_gen_density_outside_unit_interval_is_usage_error(capsys, density):
    code, out, err = run_cli(capsys, ["gen", "--size", "6", "--seed", "4", "--density", density])
    assert code == 1
    assert "usage error" in err and "[0, 1]" in err
    assert not out


@pytest.mark.parametrize("density", ["0", "0.5", "1"])
def test_gen_density_in_unit_interval_accepted(capsys, density):
    code, out, _ = run_cli(capsys, ["gen", "--size", "6", "--seed", "4", "--density", density])
    assert code == 0 and "comp:" in out


def test_check_principal_over_budget_exits_4(instdir, capsys, monkeypatch):
    monkeypatch.setattr(substructures, "DEFAULT_BUDGET", 10)
    code, out, _ = run_cli(
        capsys,
        ["check", str(instdir / "fig3.poset"), "--statement", "LEM_CL_PRINCIPAL"],
    )
    assert code == 4
    assert out.startswith("LEM_CL_PRINCIPAL: not verified (downset walk over budget: more than 10 ")


def test_analyze_over_budget_completes(instdir, capsys, monkeypatch):
    monkeypatch.setattr(substructures, "DEFAULT_BUDGET", 10)
    code, out, _ = run_cli(capsys, ["analyze", str(instdir / "fig3.poset")])
    assert code == 0
    assert "  LEM_CL_PRINCIPAL: not verified (downset walk over budget: more than 10 " in out
    assert "LEM_CL_PRINCIPAL: verified" not in out
    # counted apart from the statements whose hypotheses fail
    assert "statements: 19 checked, 0 counterexamples, 4 not applicable, 1 not verified" in out
    monkeypatch.undo()
    _, uncapped, _ = run_cli(capsys, ["analyze", str(instdir / "fig3.poset")])
    assert "statements: 19 checked, 0 counterexamples, 4 not applicable\n" in uncapped


def test_analyze_b6_reports_walk_over_default_budget(tmp_path, capsys):
    elements, covers, comp = boolean_lattice(6)
    p = build_poset(elements, covers)
    path = tmp_path / "B6.poset"
    path.write_text(emit_instance(Instance("B6", p, attach_complementation(p, comp))))
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert "ideals (64):" in out and "filters (64):" in out
    assert "LEM_CL_PRINCIPAL: not verified (downset walk over budget: more than 1048576 " in out


def test_not_applicable_rows_print_their_probe(instdir, capsys):
    # fig4 is no join-semilattice, and the union of LU(c, i) over L(a) is not
    # an ideal: the hypothesis does real work, and the text row says so
    row = (
        "LEM_JOINSEMI_LU: not applicable (poset is not a join-semilattice; "
        "probe: unguarded conclusion fails: ideal={0,a}, element=c, union={0,a,c})"
    )
    path = str(instdir / "fig4.poset")
    code, out, _ = run_cli(capsys, ["check", path, "--statement", "LEM_JOINSEMI_LU"])
    assert code == 4 and out == row + "\n"
    code, out, _ = run_cli(capsys, ["analyze", path])
    assert code == 0 and f"\n  {row}\n" in out
    # a probe that finds the conclusion holding is printed too; the machine
    # format stays without probes
    code, out, _ = run_cli(capsys, ["check", str(instdir / "fig1.poset")])
    assert (
        "LEM_BOOLEAN: not applicable (needs an antitone complementation with "
        "x<=x'' for all x; probe: unguarded conclusion happens to hold)\n"
    ) in out
    code, out, _ = run_cli(capsys, ["check", path, "--format", "machine"])
    assert (
        "theorem: tag=LEM_JOINSEMI_LU hypotheses=false conclusion=none "
        "counterexample=none\n"
    ) in out
    assert "probe" not in out
