#!/usr/bin/env python3
"""Mutation gate: every listed mutant must be killed by the tests it names.

Each entry of ``MUTANTS`` is (file, exact old text, new text, killer test
ids).  The script copies the working tree once into a temporary directory.
For each entry it replaces the old text there, runs the killers with
pytest, prints one row of the kill table and restores the file.  A mutant
is killed when its killers fail, and survives when they pass.  Any other
pytest status, such as a killer id that names no test or a mutant that no
longer imports, is an error.

Each entry of ``EQUIVALENT`` is (file, exact old text, new text, proof): a
mutant that no input the package accepts tells apart from the code.  These
are not run; the table lists each with its proof.

The script exits 1 when a mutant survives, when its killers error, or when
an entry's old text, a mutant's or an equivalent's, does not occur exactly
once in its file, so a change that moves mutated code must update the
entry.  Entries for deleted code leave with the code.

Usage: python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


_SEPARATION = "tests/test_statement_agreement.py::"
_ORACLE = "tests/test_statement_oracle.py::"

#: each entry's comment says what the mutant breaks
MUTANTS = (
    # the separation checker reads only the first disjoint ideal of each filter
    Mutant("src/cideals/harness.py", "        for i in ideals:\n", "        for i in ideals[:1]:\n", (
        _SEPARATION + "test_separation_statements_equal_the_per_pair_loop",
        _SEPARATION + "test_separation_checker_verifies_the_witness_on_every_pair",
    )),
    # the same on the met path only
    Mutant("src/cideals/harness.py", "        for i in ideals:\n", "        for i in (ideals if note else ideals[:1]):\n", (
        _SEPARATION + "test_separation_checker_verifies_the_witness_on_every_pair",
    )),
    # sort_key without the 0<->1 swap
    Mutant("src/cideals/poset.py", 'format(mask, "b")[::-1].translate(_FLIP))', 'format(mask, "b")[::-1])', (
        "tests/test_substructures.py::test_sort_key_orders_as_the_tuple_of_members",
        "tests/test_substructures.py::test_enumeration_is_sorted",
    )),
    # a fact that never stores its value
    Mutant("src/cideals/poset.py", "value = obj.__dict__[self.name] = self.build(obj)", "value = self.build(obj)", (
        "tests/test_facts.py::test_fact_builds_once_per_object_and_keeps_its_value_in_the_instance_dict",
        "tests/test_facts.py::test_principal_walk_runs_once_per_poset_and_side",
    )),
    # the record's __init__ with a default that its field does not have
    Mutant("src/cideals/harness.py", '        detail: str = "",\n', '        detail: str = "-",\n', (
        "tests/test_harness.py::test_result_init_matches_the_dataclass_fields",
    )),
    # the record's __init__ drops a field, which then reads the class default
    Mutant("src/cideals/harness.py", "            probe=probe,\n", "", (
        "tests/test_harness.py::test_result_init_matches_the_dataclass_fields",
    )),
    # run_all runs the checkers of the catalog, not those of the live table
    Mutant(
        "src/cideals/harness.py",
        "for sid, check in _CHECKERS.items()]",
        "for (sid, _), (_, check, _) in zip(_CHECKERS.items(), _CATALOG)]",
        ("tests/test_harness.py::test_run_all_runs_a_checker_replaced_after_import",),
    ),
    # maximal_ideals admits P itself, the cone of the top
    Mutant(
        "src/cideals/substructures.py",
        "q.up[generator[i]] & ~top == 1 << generator[i]]",
        "q.up[generator[i]] & ~top <= 1 << generator[i]]",
        ("tests/test_substructures.py::test_maximal_ideals_are_the_ideals_the_definition_accepts",),
    ),
    # maximal_ideals forgets that the top lies above every element
    Mutant(
        "src/cideals/substructures.py",
        "top = 0 if q.top is None else 1 << q.top",
        "top = 0",
        ("tests/test_substructures.py::test_maximal_ideals_are_the_ideals_the_definition_accepts",),
    ),
    # the closure check tests only one direction of a two-cycle
    Mutant("src/cideals/poset.py", "if di & bit and i != j:", "if di & bit and i < j:", (
        "tests/test_poset.py::test_malformed_down_cones_rejected",
    )),
    # one pass of flags: x<=x'' reads the test of x''<=x
    Mutant("src/cideals/complement.py", "            if not (down[cxx] >> x) & 1:\n", "            if not (down[x] >> cxx) & 1:\n", (
        "tests/test_small_scope.py::test_every_complementation_up_to_six_points_has_its_naive_flags",
    )),
    # the dual keeps the two order flags unswapped
    Mutant(
        "src/cideals/complement.py",
        "props.antitone, props.involution, props.xdd_le_x, props.x_le_xdd,",
        "props.antitone, props.involution, props.x_le_xdd, props.xdd_le_x,",
        ("tests/test_facts.py::test_duals_are_kept_and_carry_the_flags_over",),
    ),
    # attach_complementation names the source of an entry whose image is unknown
    Mutant(
        "src/cideals/complement.py",
        'raise UnknownName(f"unknown element name {exc.args[0]!r}")',
        'raise UnknownName(f"unknown element name {a!r}")',
        ("tests/test_complement.py::test_attach_names_the_first_bad_entry",),
    ),
    # parse_instance checks the left name of a pair line only
    Mutant("src/cideals/io.py", "            for tok in (a, b):\n", "            for tok in (a,):\n", (
        "tests/test_io.py::test_every_instance_parse_error",
    )),
    # a usage error names the private converter
    Mutant("src/cideals/cli.py", "option.convert.__name__.lstrip('_')", "option.convert.__name__", (
        "tests/test_cli.py::test_argument_forms_answer_as_recorded",
    )),
    # is_ideal accepts a set at its second maximal member
    Mutant("src/cideals/substructures.py", "            if maximal:\n                return False\n",
           "            if maximal:\n                return True\n", (
        "tests/test_small_scope.py::test_subset_tests_agree_on_every_poset_up_to_four_points",
    )),
    # LEM_BOOLEAN tests the cone inclusion the wrong way round
    Mutant("src/cideals/harness.py", "if not up[a] & ~up[add] and add != a:", "if not up[add] & ~up[a] and add != a:", (
        _ORACLE + "test_records_match_the_naive_oracle_up_to_six_points",
    )),
    # LEM_PROPER_PAIR reads the image of the set for its preimage
    Mutant("src/cideals/harness.py", "both = s & cp.comp_preimage(s)", "both = s & cp.comp_image(s)", (
        _ORACLE + "test_checkers_read_the_map_on_every_self_map_up_to_four_points",
    )),
    # LEM_TRIPLE_A0 takes the largest failing singleton
    Mutant("src/cideals/harness.py", "k = min(min(ca, caaa)", "k = max(min(ca, caaa)", (
        _ORACLE + "test_records_match_the_naive_oracle_up_to_six_points",
        "tests/test_cross_validation.py::test_lem_triple_a0_singletons_match_subset_brute_force",
    )),
    # the c-ideal witness map keeps every preimage, ideal or not
    Mutant("src/cideals/substructures.py", "if pre in cones or is_ideal(q, pre)}", "if True}", (
        "tests/test_small_scope.py::test_witness_maps_hold_the_naive_c_ideals_up_to_six_points",
    )),
    # the witness family skips the pair of each element with its successor
    Mutant("src/cideals/substructures.py", "for y in range(x + 1, p.n)", "for y in range(x + 2, p.n)", (
        "tests/test_small_scope.py::test_principal_family_is_the_naive_pair_list_on_every_small_poset",
    )),
    # LEM_CL_PRINCIPAL never compares an accepted set with the cones
    Mutant("src/cideals/substructures.py", "strays = [s for s in kept if s not in cones]",
           "strays = [s for s in kept if False]", (
        "tests/test_harness.py::test_lem_cl_principal_reports_a_pair_the_ideal_test_accepts",
    )),
    # the union row offset by one element
    Mutant("src/cideals/substructures.py", "for a, cell in enumerate(row) if cell in bad)",
           "for a, cell in enumerate(row[1:] + row[:1]) if cell in bad)", (
        "tests/test_substructures.py::test_union_over_a_principal_cone_is_one_table_cell",
        "tests/test_reference_checkers.py::test_union_conditions_match_the_unions",
    )),
)


class Equivalent(NamedTuple):
    file: str
    old: str
    new: str
    proof: str


#: mutants that no input the package accepts tells apart from the code,
#: each with its proof; not run, but each old text must occur exactly once
EQUIVALENT = (
    Equivalent(
        "src/cideals/harness.py", "both = s & cp.comp_preimage(s)",
        "both = s & cp.comp_preimage(s) & ~sum(1 << x for x, cx in enumerate(cp.comp) if cx == x)",
        "a complementation with a' = a has a as both bounds, so n = 1, where no ideal or filter is proper",
    ),
    Equivalent(
        "src/cideals/substructures.py", "if pre in cones or is_ideal(q, pre)}", "if pre in cones}",
        "every ideal is a principal cone (LEM_CL_PRINCIPAL), so no preimage that is not a cone passes is_ideal",
    ),
)

_SKIP = shutil.ignore_patterns(".git", ".perfbench", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")


def mismatches(entries=MUTANTS, root: Path = ROOT, equivalent=EQUIVALENT) -> list[str]:
    """One line per entry, mutant or equivalent, whose old text does not
    occur exactly once."""
    found = []
    for label, group in (("#", entries), ("equivalent #", equivalent)):
        for k, m in enumerate(group, start=1):
            count = (root / m.file).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                found.append(f"{label}{k} {m.file}: old text found {count} times")
    return found


def _killers_status(tree: Path, killers) -> tuple[str, str]:
    """("killed" | "survived" | "error", pytest's last output lines)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers]
    try:
        run = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return "error", "killers ran past 900 s"
    tail = "\n".join((run.stdout + run.stderr).strip().splitlines()[-3:])
    return {0: "survived", 1: "killed"}.get(run.returncode, "error"), tail


def run(entries=MUTANTS, root: Path = ROOT, out=sys.stdout, equivalent=EQUIVALENT) -> int:
    """Print the kill table of ``entries`` against the tree at ``root``,
    then the ``equivalent`` entries with their proofs; 0 when every mutant
    is killed and every equivalent entry matches, else 1."""
    problems = mismatches(entries, root, equivalent)
    for line in problems:
        print(line, file=out)
    counts = {"killed": 0, "survived": 0, "error": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=_SKIP)
        for k, m in enumerate(entries, start=1):
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                continue
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                status, tail = _killers_status(tree, m.killers)
            finally:
                path.write_text(original, encoding="utf-8")
            counts[status] += 1
            shown = " ".join((m.new.strip() or "(deleted) " + m.old.strip()).split())[:60]
            print(f"#{k:<3}{status:<9}{m.file}: {shown}  [{len(m.killers)} killer(s)]", file=out)
            if status != "killed":
                print("    " + tail.replace("\n", "\n    "), file=out)
    for k, m in enumerate(equivalent, start=1):
        print(f"={k:<3}{'equivalent':<11}{m.file}: {m.proof}", file=out)
    print(
        f"{len(entries)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
        f"{counts['error']} errors, {len(problems)} not matched",
        file=out,
    )
    return 0 if counts["killed"] == len(entries) and not problems else 1


if __name__ == "__main__":
    sys.exit(run())
