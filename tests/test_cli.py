import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from cideals import Instance, attach_complementation, build_poset, emit_instance
from cideals import cli
from cideals.cli import COMMANDS, PROGRAM, main, make_parser
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


def test_check_one_element_poset_exits_0(tmp_path, capsys):
    # x = x' = 0: {0} holds both x and x', so it misses the c-condition and
    # THM5_I_II/THM5_V_VI are not applicable rather than refuted
    path = tmp_path / "one.poset"
    path.write_text("name: one\nelements: 0\ncomp: 0 -> 0\n")
    code, out, _ = run_cli(capsys, ["check", str(path)])
    assert code == 0
    assert "COUNTEREXAMPLE" not in out
    assert "THM5_I_II: not applicable (no ideal satisfies the c-condition" in out
    assert "THM5_V_VI: not applicable (no filter satisfies the c-condition" in out
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


@pytest.mark.parametrize(
    "instance, ideal, filt, code, line",
    [
        ("fig2b", "L(e)", "U(f)", 0,
         "separation: mode=first ideal={0,a,b,c,d,e} filter={f,1} witness={0,a,b,c,d,e} failure=none"),
        ("fig1", "L(a)", "U(b)", 4,
         "separation: mode=first ideal={0,a} filter={b,1} witness=none failure=XLeXddFails"),
    ],
    ids=["witness", "hypothesis-fails"],
)
def test_separate_machine_line(instdir, capsys, instance, ideal, filt, code, line):
    got = run_cli(
        capsys,
        ["separate", str(instdir / f"{instance}.poset"), "--ideal", ideal, "--filter", filt, "--format", "machine"],
    )
    assert got == (code, line + "\n", "")


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


def test_corpus_machine_names_each_instance_and_the_fig3_divergence(capsys):
    code, out, err = run_cli(capsys, ["corpus", "--format", "machine"])
    assert code == 0 and not err
    lines = out.splitlines()
    names = [line.split()[1] for line in lines if line.startswith("corpus: ")]
    assert names == [f"name={name}" for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4")]
    divergences = [line for line in lines if line.startswith("divergence: ")]
    assert divergences == ["divergence: instance=fig3 list=prime_filters published={a,b} computed={a,d}"]


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


@pytest.mark.parametrize(
    "argv, require",
    [
        (["--size", "3", "--seed", "0"], "-"),  # the 3-chain has no complementation
        (["--size", "23", "--seed", "1", "--require", "involution"], "involution"),
    ],
)
def test_gen_without_a_complementation_exits_4(capsys, argv, require):
    code, out, err = run_cli(capsys, ["gen", *argv])
    assert code == 4 and out == ""
    assert err == f"no complementation found for size={argv[1]} seed={argv[3]} require={require}\n"


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


#: each family's ``--class`` choices in listing order, and the machine
#: column that is true on exactly the rows a class selects
CLASS_COLUMNS = {
    "ideals": {"proper": "proper", "maximal": "maximal", "prime": "prime", "c-ideal": "cideal",
               "c-condition": "ccond"},
    "filters": {"proper": "proper", "ultrafilter": "ultrafilter", "prime": "prime",
                "c-filter": "cfilter", "c-condition": "ccond"},
}


def test_class_choices_keep_their_order():
    for family, columns in CLASS_COLUMNS.items():
        assert COMMANDS[family].options["--class"].choices == ("all", *columns)


@pytest.mark.parametrize(
    "family, klass", [(family, klass) for family, columns in CLASS_COLUMNS.items() for klass in columns]
)
def test_class_lists_the_all_rows_whose_column_is_true(family, klass, listing_instances, capsys):
    """``--class K --format machine`` prints exactly the ``--class all``
    rows whose column for K reads ``true``."""
    column, kept, dropped = CLASS_COLUMNS[family][klass], 0, 0
    for path, _ in listing_instances:
        code, out, err = run_cli(capsys, [family, path, "--class", "all", "--format", "machine"])
        assert code == 0 and not err
        rows = out.splitlines()
        fields = [dict(tok.split("=", 1) for tok in row.partition(": ")[2].split()) for row in rows]
        want = [row for row, f in zip(rows, fields) if f[column] == "true"]
        assert all(f[column] in ("true", "false") for f in fields)
        code, out, err = run_cli(capsys, [family, path, "--class", klass, "--format", "machine"])
        assert (code, out.splitlines(), err) == (0, want, ""), path
        kept, dropped = kept + len(want), dropped + len(rows) - len(want)
    assert kept and dropped  # the class both selects and leaves out rows


def test_flag_inventory():
    # every option of the command line, by command ("" before the command),
    # -h/--help aside: a knob added or dropped edits this list
    got = {"": sorted(PROGRAM.options), **{name: sorted(cmd.options) for name, cmd in COMMANDS.items()}}
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


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["gen", "-h"]])
def test_help_returns_zero_in_process(capsys, argv):
    # the help text goes to stdout and main returns 0, with no SystemExit
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage:")
    assert main(["analyze", "--no-such-flag"]) == 1


def test_run_exits_zero_on_help(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cideals", "--help"])
    handlers = []  # run() sets SIGPIPE's action; this process keeps its own
    monkeypatch.setattr(signal, "signal", lambda *args: handlers.append(args))
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert handlers == ([(signal.SIGPIPE, signal.SIG_DFL)] if hasattr(signal, "SIGPIPE") else [])


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_run_without_a_traceback(tmp_path):
    # the listing is larger than a pipe buffers, so the run is still
    # writing when the reader closes the pipe after the first line
    names = [f"element_with_a_long_name_{i:03}" for i in range(100)]
    chain = tmp_path / "chain.poset"
    chain.write_text(
        "name: chain\nelements: " + " ".join(names) + "\n"
        + "".join(f"le: {a} < {b}\n" for a, b in zip(names, names[1:]))
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cideals", "ideals", str(chain)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first == f"L({names[0]}) = {{{names[0]}}}\n".encode()
    assert (proc.wait(timeout=60), err) == (-signal.SIGPIPE, b"")


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
    return [str(instdir / a) if a.endswith(".poset") and a[0] != "-" else a for a in argv]


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "argv", HARNESS_COMMANDS + OTHER_COMMANDS, ids=lambda argv: argv[0]
)
def test_budget_must_be_positive(instdir, capsys, argv, budget):
    # nothing is capped: --budget is an unknown flag on every command
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


def test_analyze_b6_verifies_lem_cl_principal(tmp_path, capsys):
    elements, covers, comp = boolean_lattice(6)
    p = build_poset(elements, covers)
    path = tmp_path / "B6.poset"
    path.write_text(emit_instance(Instance("B6", p, attach_complementation(p, comp))))
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert "ideals (64):" in out and "filters (64):" in out
    assert "\n  LEM_CL_PRINCIPAL: verified\n" in out


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


# -- repeated calls --------------------------------------------------------------

REUSE_SEQUENCE = [
    [],
    ["frobnicate"],
    ["analyze"],
    ["separate", "fig1.poset", "--ideal", "a"],
    ["analyze", "fig1.poset", "--bogus"],
    ["--format", "machine", "analyze", "fig1.poset"],
    ["analyze", "fig1.poset", "--format", "machine"],
    ["analyze", "fig1.poset", "--format", "json"],
    ["--format", "text", "ideals", "fig2b.poset", "--class", "prime", "--format", "machine"],
    ["filters", "fig3.poset", "--class", "c-filter"],
    ["dot", "fig1.poset", "--highlight", "a", "--highlight", "{b,c}", "--highlight", "U(b)"],
    ["dot", "fig1.poset"],
    ["dot", "fig1.poset", "--highlight", "nope"],
    ["gen", "--size", "6", "--seed", "4", "--require", "antitone,involution"],
    ["gen", "--size", "6", "--seed", "4", "--require", "foo"],
    ["gen", "--size", "6", "--seed", "4"],
    ["check", "fig1.poset", "--statement", "LEM_BOOLEAN,THM_SEP1"],
    ["check", "fig1.poset", "--statement", "NOPE"],
    ["check", "fig4.poset", "--format", "machine"],
    ["separate", "fig1.poset", "--ideal", "L(b)", "--filter", "c", "--mode", "second"],
    ["corpus", "--format", "machine"],
    ["analyze", "missing.poset"],
]


def test_reused_parser_answers_like_a_fresh_one(instdir, capsys):
    # main keeps nothing between calls: the sequence answers the same run
    # twice, and run backwards
    forward = [run_cli(capsys, _argv(instdir, argv)) for argv in REUSE_SEQUENCE]
    assert forward == [run_cli(capsys, _argv(instdir, argv)) for argv in REUSE_SEQUENCE]
    backward = [run_cli(capsys, _argv(instdir, argv)) for argv in reversed(REUSE_SEQUENCE)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [
        1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 3, 0, 1, 0, 4, 1, 0, 4, 0, 2
    ]


def test_handler_replaced_after_first_call_runs(instdir, capsys, monkeypatch):
    path = str(instdir / "fig1.poset")
    assert run_cli(capsys, ["analyze", path])[0] == 0
    seen = []

    def fake(args):
        seen.append(args.file)
        return 7

    monkeypatch.setattr(cli, "_cmd_analyze", fake)
    assert run_cli(capsys, ["analyze", path]) == (7, "", "")
    assert seen == [path]
    monkeypatch.undo()
    assert run_cli(capsys, ["analyze", path])[0] == 0
    assert seen == [path]


def test_parser_holds_no_handler():
    args = make_parser()(["corpus"])
    assert sorted(vars(args)) == ["command", "emit", "format", "format_global"]


#: argv -> (exit code, stdout, stderr), recorded from the argparse parser the
#: command table replaced, on an 80-column terminal.  A stdout of more than
#: one line is given by the first 16 hex digits of its sha256.
ARGUMENT_FORMS = [
    (['analyze', 'fig1.poset', '--format=machine'], 0, 'sha256:2462b2a6ca645554', ''),
    (['separate', 'fig4.poset', "--ideal=e'", '--filter=b', '--mode=second'], 0, "J = {0,a,c,d,e',b'} (= L(b'))\n", ''),
    (['check', 'fig1.poset', '--stat', 'LEM_BOOLEAN'], 4, "LEM_BOOLEAN: not applicable (needs an antitone complementation with x<=x'' for all x; probe: unguarded conclusion happens to hold)\n", ''),
    (['check', 'fig1.poset', '--stat=LEM_BOOLEAN', '--form', 'machine'], 4, 'theorem: tag=LEM_BOOLEAN hypotheses=false conclusion=none counterexample=none\n', ''),
    (['separate', 'fig1.poset', '--ideal', 'a', '--f', 'b'], 1, '', 'usage error: ambiguous option: --f could match --format, --filter\n'),
    (['separate', 'fig1.poset', '--ideal', 'a', '--filter', 'b', '--m', 'second'], 4, 'separation hypothesis failed: NotDistributive\n', ''),
    (['--format', 'machine', 'check', 'fig1.poset'], 0, 'sha256:898d975fc11323f3', ''),
    (['--format', 'text', 'analyze', 'fig1.poset', '--format', 'machine'], 0, 'sha256:2462b2a6ca645554', ''),
    (['--format', 'machine', 'ideals', 'fig2b.poset', '--format', 'text'], 0, 'sha256:907d33e9f27f00c9', ''),
    (['--form=machine', 'corpus'], 0, 'sha256:1358f3da84cbf652', ''),
    (['separate', '--ideal', "e'", 'fig4.poset', '--filter', 'b'], 0, "J = {0,a,c,d,e',b'} (= L(b'))\n", ''),
    (['ideals', '--class', 'prime', 'fig2b.poset'], 0, 'L(e) = {0,a,b,c,d,e}\n', ''),
    (['dot', '--highlight', 'a', 'fig1.poset', '--highlight', '{b,c}', '--highlight', 'U(b)'], 0, 'sha256:2e79879d03bae5ed', ''),
    (['gen', '--size', '6', '--seed', '-1'], 0, 'sha256:778540244652e38a', ''),
    (['gen', '--seed', '-1', '--size', '6', '--density', '0.5'], 4, '', 'no complementation found for size=6 seed=-1 require=-\n'),
    (['analyze', '--', 'fig1.poset'], 0, 'sha256:7cc2dd655420de9c', ''),
    (['analyze', '--format', 'machine', '--', '-x.poset'], 2, '', "error: cannot read -x.poset: [Errno 2] No such file or directory: '-x.poset'\n"),
    (['analyze'], 1, '', 'usage error: the following arguments are required: file\n'),
    (['separate', 'fig1.poset', '--ideal', 'a'], 1, '', 'usage error: the following arguments are required: --filter\n'),
    (['separate', 'fig1.poset'], 1, '', 'usage error: the following arguments are required: --ideal, --filter\n'),
    (['gen', '--size', '6'], 1, '', 'usage error: the following arguments are required: --seed\n'),
    (['analyze', 'fig1.poset', '--format', 'json'], 1, '', "usage error: argument --format: invalid choice: 'json' (choose from 'text', 'machine')\n"),
    (['--format', 'json', 'analyze', 'fig1.poset'], 1, '', "usage error: argument --format: invalid choice: 'json' (choose from 'text', 'machine')\n"),
    (['ideals', 'fig1.poset', '--class', 'bogus'], 1, '', "usage error: argument --class: invalid choice: 'bogus' (choose from 'all', 'proper', 'maximal', 'prime', 'c-ideal', 'c-condition')\n"),
    (['filters', 'fig1.poset', '--class', 'c-ideal'], 1, '', "usage error: argument --class: invalid choice: 'c-ideal' (choose from 'all', 'proper', 'ultrafilter', 'prime', 'c-filter', 'c-condition')\n"),
    (['separate', 'fig1.poset', '--ideal', 'a', '--filter', 'b', '--mode', 'x'], 1, '', "usage error: argument --mode: invalid choice: 'x' (choose from 'first', 'prime', 'second')\n"),
    (['gen', '--size', 'x', '--seed', '1'], 1, '', "usage error: argument --size: invalid int value: 'x'\n"),
    (['gen', '--size', '6', '--seed', '1.5'], 1, '', "usage error: argument --seed: invalid int value: '1.5'\n"),
    (['gen', '--size', '6', '--seed', '1', '--density', '1e400'], 1, '', 'usage error: argument --density: must lie in [0, 1], got 1e400\n'),
    (['gen', '--size', '6', '--seed', '1', '--density', 'x'], 1, '', "usage error: argument --density: invalid probability value: 'x'\n"),
    (['gen', '--size', '6', '--seed', '1', '--require', 'foo'], 1, '', "usage error: argument --require: unknown constraint 'foo'\n"),
    (['analyze', 'fig1.poset', '--format'], 1, '', 'usage error: argument --format: expected one argument\n'),
    (['analyze', 'fig1.poset', '--seed', '1'], 1, '', 'usage error: unrecognized arguments: --seed 1\n'),
    (['analyze', 'fig1.poset', 'extra'], 1, '', 'usage error: unrecognized arguments: extra\n'),
    (['--bogus', 'analyze', 'fig1.poset'], 1, '', 'usage error: unrecognized arguments: --bogus\n'),
    (['corpus', '--emit'], 1, '', 'usage error: argument --emit: expected one argument\n'),
    ([], 1, '', 'usage error: the following arguments are required: command\n'),
    (['--format', 'machine'], 1, '', 'usage error: the following arguments are required: command\n'),
    (['frobnicate'], 1, '', "usage error: argument command: invalid choice: 'frobnicate' (choose from 'analyze', 'ideals', 'filters', 'check', 'separate', 'dot', 'corpus', 'gen')\n"),
    (['-h'], 0, 'sha256:4d2607df873b221c', ''),
    (['--help'], 0, 'sha256:4d2607df873b221c', ''),
    (['--he'], 0, 'sha256:4d2607df873b221c', ''),
    (['analyze', '-h'], 0, 'sha256:cfe07417e0d94f63', ''),
    (['analyze', '--help'], 0, 'sha256:cfe07417e0d94f63', ''),
    (['ideals', '-h'], 0, 'sha256:508f61b88396d1e1', ''),
    (['filters', '-h'], 0, 'sha256:e104a82a9b05be3a', ''),
    (['check', '-h'], 0, 'sha256:1b4380567d4339ba', ''),
    (['separate', '--help'], 0, 'sha256:3f975fd0d7de104f', ''),
    (['dot', '-h'], 0, 'sha256:62919f2bf01f9025', ''),
    (['corpus', '-h'], 0, 'sha256:6a0066931bb04bc0', ''),
    (['gen', '-h'], 0, 'sha256:d4349287adddbb59', ''),
    (['gen', '--size', '6', '-h'], 0, 'sha256:d4349287adddbb59', ''),
]


@pytest.mark.parametrize(
    "argv, code, out, err", [pytest.param(*row, id=" ".join(row[0]) or "no-arguments") for row in ARGUMENT_FORMS]
)
def test_argument_forms_answer_as_recorded(instdir, capsys, argv, code, out, err):
    got_code, got_out, got_err = run_cli(capsys, _argv(instdir, argv))
    if got_out.count("\n") > 1:
        got_out = "sha256:" + hashlib.sha256(got_out.encode()).hexdigest()[:16]
    assert (got_code, got_out, got_err) == (code, out, err)
