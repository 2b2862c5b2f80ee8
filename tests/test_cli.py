"""Command-line interface: verdicts, transforms, exit codes, JSON output."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adjustkit
from adjustkit import (
    AdjustmentQuery,
    adjustment_criterion,
    backdoor_criterion,
    parse_graph,
    verdict_from_json,
)
from adjustkit.cli import build_parser, run
from conftest import FIXTURE_DIR

FIG1A = str(FIXTURE_DIR / "fig1a.g")
FIG1B = str(FIXTURE_DIR / "fig1b.g")
FIG1C = str(FIXTURE_DIR / "fig1c.g")

QUERY = {"Z": "", "X": "X", "Y": "Y"}
# each verb's required flags (after --graph) and the namespace its minimal
# argv parses to, beside command, graph=FIG1A and json=False
VERBS = {
    "check-backdoor": (("-X", "-Y"), {**QUERY, "criterion": "backdoor"}),
    "check-adjust": (("-X", "-Y"), {**QUERY, "criterion": "adjustment", "mode": "fast"}),
    "check-t7": (("-X", "-Y"), {**QUERY, "criterion": "theorem7"}),
    "find-sets": (("-X", "-Y"), {"X": "X", "Y": "Y", "candidates": None, "limit": 16}),
    "canonical-set": (("-X", "-Y"), {"X": "X", "Y": "Y"}),
    "exists-set": (("-X", "-Y"), {"X": "X", "Y": "Y"}),
    "twin": (("-X",), {"X": "X"}),
    "project": (("-M",), {"M": "M"}),
    "magnify": ((), {"E": ""}),
    "paths": (("-X", "-Y"), {**QUERY, "max_len": None}),
    "verify": (("-X", "-Y"), {**QUERY, "trials": 100, "tol": 1e-9, "seed": 0}),
    "refute": (("-X", "-Y"), {**QUERY, "trials": 200, "delta": 0.01, "seed": 0}),
}


def readme_console_commands():
    """Each ``$ adjustkit ...`` line of README's console blocks with the output printed under it."""
    readme = (FIXTURE_DIR.parent / "README.md").read_text()
    out = []
    for block in re.findall(r"^```console\n(.*?)^```", readme, re.S | re.M):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            out.append((command, printed))
    return out


def minimal_argv(verb):
    argv = [verb, "--graph", FIG1A]
    for flag in VERBS[verb][0]:
        argv += [flag, flag[1:]]
    return argv


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestCheckVerbs:
    def test_backdoor_holds(self, capsys):
        code, out, _ = invoke(
            capsys, "check-backdoor", "--graph", FIG1A, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 0
        assert "holds" in out and "{Z}" in out

    def test_backdoor_fails_on_descendant(self, capsys):
        code, out, _ = invoke(
            capsys, "check-backdoor", "--graph", FIG1B, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 1
        assert "descendant of the treatment set" in out

    def test_adjust_holds_where_backdoor_fails(self, capsys):
        code, _, _ = invoke(
            capsys, "check-adjust", "--graph", FIG1B, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 0

    def test_adjust_fails_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "check-adjust", "--graph", FIG1C, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 1
        assert "proper causal path" in out

    def test_adjust_modes_agree(self, capsys):
        for mode in ("fast", "reference"):
            code, _, _ = invoke(
                capsys,
                "check-adjust", "--graph", FIG1C,
                "-X", "X", "-Y", "Y", "--mode", mode,
            )
            assert code == 1

    def test_open_noncausal_path_message(self, capsys):
        code, out, _ = invoke(
            capsys, "check-adjust", "--graph", FIG1C, "-X", "X", "-Y", "Y"
        )
        assert code == 1
        assert "non-causal path X <-> Y open given the covariates" in out

    def test_t7_matches_adjustment(self, capsys):
        for graph, z, expected in ((FIG1A, "Z", 0), (FIG1B, "Z", 0), (FIG1C, "Z", 1)):
            code, _, _ = invoke(
                capsys, "check-t7", "--graph", graph, "-X", "X", "-Y", "Y", "-Z", z
            )
            assert code == expected

    def test_unknown_node_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "check-adjust", "--graph", FIG1A, "-X", "X", "-Y", "W"
        )
        assert code == 2
        assert "error:" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "check-adjust", "--graph", "/nonexistent.g", "-X", "X", "-Y", "Y"
        )
        assert code == 2
        assert "cannot read graph file" in err

    def test_overlapping_sets_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "check-adjust", "--graph", FIG1A, "-X", "X", "-Y", "X"
        )
        assert code == 2

    @pytest.mark.parametrize("x, y, message", [
        ("X", "X", "treatments, outcomes, and covariates must be pairwise disjoint"),
        ("X", "", "treatment and outcome sets must be nonempty"),
        ("X", "W", "unknown node: W"),
    ], ids=["same sets", "empty outcomes", "unknown node"])
    def test_adjustment_verbs_reject_a_bad_query_alike(self, capsys, x, y, message):
        verbs = ("check-adjust", "check-backdoor", "check-t7", "find-sets", "canonical-set", "exists-set",
                 "verify", "refute")
        for verb in verbs:
            assert invoke(capsys, verb, "--graph", FIG1A, "-X", x, "-Y", y) == (2, "", f"error: {message}\n"), verb

    def test_unknown_subcommand_exits_2(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "verb, flag",
        [(verb, flag) for verb, (flags, _) in VERBS.items() for flag in ("--graph", *flags)],
    )
    def test_missing_required_flag_exits_2(self, capsys, verb, flag):
        argv = minimal_argv(verb)
        i = argv.index(flag)
        del argv[i : i + 2]
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"the following arguments are required: {flag}" in err

    @pytest.mark.parametrize("verb", VERBS)
    def test_documented_defaults(self, verb):
        args = vars(build_parser().parse_args(minimal_argv(verb)))
        assert args.pop("func").__module__ == "adjustkit.cli"
        assert args == {"command": verb, "graph": FIG1A, "json": False, **VERBS[verb][1]}

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        import adjustkit.cli as cli

        def broken(*args, **kwargs):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "canonical_adjustment_set", broken)
        code, out, err = invoke(capsys, "canonical-set", "--graph", FIG1A, "-X", "X", "-Y", "Y")
        assert code == 3
        assert out == ""
        assert err == "internal error: KeyError('lost')\n"


class TestJsonVerdicts:
    def test_round_trips_through_the_library(self, capsys, fig1c):
        code, doc, _ = invoke_json(
            capsys, "check-adjust", "--graph", FIG1C, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 1
        name, verdict = verdict_from_json(doc)
        assert name == "adjustment"
        query = AdjustmentQuery(frozenset("X"), frozenset("Y"), frozenset("Z"))
        assert verdict == adjustment_criterion(fig1c, query)

    def test_backdoor_json_fields(self, capsys, fig1a):
        code, doc, _ = invoke_json(
            capsys, "check-backdoor", "--graph", FIG1A, "-X", "X", "-Y", "Y"
        )
        assert code == 1
        assert doc["criterion"] == "backdoor"
        assert doc["holds"] is False
        assert doc["failure"]["kind"] == "open_backdoor_path"
        assert doc["witness_path"] == "X <- Z -> Y"
        name, verdict = verdict_from_json(doc)
        query = AdjustmentQuery(frozenset("X"), frozenset("Y"))
        assert verdict == backdoor_criterion(fig1a, query)

    def test_t7_wire_name(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "check-t7", "--graph", FIG1A, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 0
        assert doc["criterion"] == "theorem7"
        assert doc["holds"] is True and doc["failure"] is None

    def test_single_json_document(self, capsys):
        _, out, _ = invoke(
            capsys,
            "check-adjust", "--graph", FIG1A, "-X", "X", "-Y", "Y", "-Z", "Z",
            "--json",
        )
        json.loads(out)  # exactly one parseable document


class TestFailureReports:
    """The exact document and sentence for each failure kind."""

    @pytest.mark.parametrize(
        "verb, text, z, failure, sentence",
        [
            (
                "check-adjust",
                "X -> M\nM -> Y\nM -> W",
                "W",
                {"kind": "forbidden_descendant", "offender": "W", "causal_node": "M"},
                "adjustment criterion fails: covariate W is a post-intervention descendant of M, "
                "which lies on a proper causal path",
            ),
            (
                "check-adjust",
                "X -> Z\nZ -> Y\nX <-> Y",
                "",
                {"kind": "open_noncausal_path", "path": "X <-> Y"},
                "adjustment criterion fails: non-causal path X <-> Y open given the covariates",
            ),
            (
                "check-backdoor",
                "X -> Y\nX -> Z",
                "Z",
                {"kind": "treatment_descendant", "offender": "Z"},
                "back-door criterion fails: covariate Z is a descendant of the treatment set",
            ),
            (
                "check-backdoor",
                "Z -> X\nZ -> Y\nX -> Y",
                "",
                {"kind": "open_backdoor_path", "path": "X <- Z -> Y"},
                "back-door criterion fails: back-door path X <- Z -> Y open given the covariates",
            ),
        ],
    )
    def test_each_failure_kind(self, capsys, tmp_path, verb, text, z, failure, sentence):
        graph = tmp_path / "g.g"
        graph.write_text(text + "\n")
        argv = (verb, "--graph", str(graph), "-X", "X", "-Y", "Y", "-Z", z)
        assert invoke(capsys, *argv) == (1, sentence + "\n", "")
        code, doc, _ = invoke_json(capsys, *argv)
        criterion = "adjustment" if verb == "check-adjust" else "backdoor"
        assert code == 1
        assert doc == {
            "criterion": criterion,
            "holds": False,
            "failure": failure,
            "witness_path": failure.get("path"),
        }

    def test_magnified_graph_failure_has_no_detail(self, capsys):
        argv = ("check-t7", "--graph", FIG1C, "-X", "X", "-Y", "Y")
        assert invoke(capsys, *argv) == (1, "magnified-graph criterion fails: criterion fails\n", "")
        code, doc, _ = invoke_json(capsys, *argv)
        assert (code, doc["failure"], doc["witness_path"]) == (1, None, None)


class TestSetCommands:
    def test_find_sets_fork(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "find-sets", "--graph", FIG1A, "-X", "X", "-Y", "Y"
        )
        assert code == 0
        assert doc["sets"] == [["Z"]]

    def test_find_sets_empty_exit_one(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "find-sets", "--graph", FIG1C, "-X", "X", "-Y", "Y"
        )
        assert code == 1
        assert doc["sets"] == []

    def test_find_sets_candidates_and_limit(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "find-sets", "--graph", FIG1B, "-X", "X", "-Y", "Y",
            "--candidates", "Z", "--limit", "1",
        )
        assert code == 0
        assert doc["sets"] == [[]]

    def test_canonical_set(self, capsys):
        code, out, _ = invoke(
            capsys, "canonical-set", "--graph", FIG1A, "-X", "X", "-Y", "Y"
        )
        assert code == 0
        assert out.strip() == "{Z}"

    def test_exists_set_verdicts(self, capsys):
        assert invoke(capsys, "exists-set", "--graph", FIG1A, "-X", "X", "-Y", "Y")[0] == 0
        code, out, _ = invoke(
            capsys, "exists-set", "--graph", FIG1C, "-X", "X", "-Y", "Y"
        )
        assert code == 1
        assert "no valid adjustment set exists" in out


@pytest.mark.parametrize("command, printed", readme_console_commands())
def test_readme_console_examples_print_what_they_show(capsys, monkeypatch, command, printed):
    monkeypatch.chdir(FIXTURE_DIR.parent)
    program, *argv = shlex.split(command)
    assert program == "adjustkit"
    run(argv)
    assert capsys.readouterr().out == printed


class TestTransforms:
    def test_twin_dump_matches_fixture(self, capsys):
        code, out, _ = invoke(capsys, "twin", "--graph", FIG1A, "-X", "X")
        assert code == 0
        expected = parse_graph((FIXTURE_DIR / "fig2_twin.g").read_text())
        assert parse_graph(out) == expected
        assert out.splitlines()[0] == "node Z X Y X@do Y@do"

    def test_twin_json_reports_copies(self, capsys):
        code, doc, _ = invoke_json(capsys, "twin", "--graph", FIG1A, "-X", "X")
        assert code == 0
        assert doc["counterfactual_of"] == {"Z": "Z", "X": "X@do", "Y": "Y@do"}
        assert ["X@do", "Y@do"] in doc["directed"]

    def test_project(self, capsys):
        code, doc, _ = invoke_json(capsys, "project", "--graph", FIG1C, "-M", "Z")
        assert code == 0
        assert doc["nodes"] == ["X", "Y"]
        assert doc["directed"] == [["X", "Y"]]
        assert doc["bidirected"] == [["X", "Y"]]

    def test_magnify(self, capsys):
        code, doc, _ = invoke_json(capsys, "magnify", "--graph", FIG1C)
        assert code == 0
        assert "__W_X_Y" in doc["nodes"]
        assert doc["bidirected"] == []

    def test_magnify_with_edges(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "magnify", "--graph", FIG1C, "-E", "Z->Y"
        )
        assert code == 0
        assert any(v.startswith("__C_") for v in doc["nodes"])

    def test_magnify_bad_edge_spec(self, capsys):
        code, _, err = invoke(capsys, "magnify", "--graph", FIG1C, "-E", "ZY")
        assert code == 2
        assert "expected 'A->B'" in err

    def test_magnify_non_edge(self, capsys):
        code, _, err = invoke(capsys, "magnify", "--graph", FIG1C, "-E", "Y->Z")
        assert code == 2


class TestPaths:
    def test_annotated_listing(self, capsys):
        code, out, _ = invoke(
            capsys, "paths", "--graph", FIG1A, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["X -> Y  [open]", "X <- Z -> Y  [blocked]"]

    def test_json_listing(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "paths", "--graph", FIG1C, "-X", "X", "-Y", "Y"
        )
        assert code == 0
        assert {"path": "X <-> Y", "blocked": False} in doc["paths"]

    def test_max_len(self, capsys):
        code, doc, _ = invoke_json(
            capsys, "paths", "--graph", FIG1A, "-X", "X", "-Y", "Y", "--max-len", "1"
        )
        assert doc["paths"] == [{"path": "X -> Y", "blocked": False}]

    def test_no_paths_message(self, capsys):
        code, out, _ = invoke(
            capsys, "paths", "--graph", FIG1B, "-X", "Z", "-Y", "Y", "-Z", "X"
        )
        # fig1b: X -> Y, X -> Z; the only Z..Y path runs through X
        assert code == 0
        assert "Z <- X -> Y  [blocked]" in out


class TestOracleVerbs:
    def test_verify_fork(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "--graph", FIG1A, "-X", "X", "-Y", "Y", "-Z", "Z",
            "--trials", "5",
        )
        assert code == 0
        assert "soundness verified: 5 trials" in out

    def test_verify_json(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "verify", "--graph", FIG1B, "-X", "X", "-Y", "Y", "-Z", "Z",
            "--trials", "5",
        )
        assert code == 0
        assert doc["passed"] is True and doc["trials"] == 5
        assert doc["max_gap"] <= 1e-9

    def test_verify_refuses_failing_query(self, capsys):
        code, _, err = invoke(
            capsys,
            "verify", "--graph", FIG1C, "-X", "X", "-Y", "Y", "-Z", "Z",
            "--trials", "5",
        )
        assert code == 2
        assert "criterion fails" in err

    def test_refute_mediator(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "refute", "--graph", FIG1C, "-X", "X", "-Y", "Y", "-Z", "Z",
            "--trials", "50", "--seed", "0",
        )
        assert code == 1
        assert doc["found"] is True
        assert doc["gap"] > 0.01
        assert doc["x"] == {"X": doc["x"]["X"]}

    def test_refute_none_found(self, capsys):
        code, doc, _ = invoke_json(
            capsys,
            "refute", "--graph", FIG1C, "-X", "X", "-Y", "Y", "-Z", "Z",
            "--trials", "2", "--delta", "0.9",
        )
        assert code == 0
        assert doc == {"found": False, "trials": 2, "delta": 0.9}

    def test_refute_refuses_holding_query(self, capsys):
        code, _, err = invoke(
            capsys, "refute", "--graph", FIG1A, "-X", "X", "-Y", "Y", "-Z", "Z"
        )
        assert code == 2
        assert "no counterexample to search for" in err

    @pytest.mark.parametrize(
        "verb, graph, option, value",
        [
            ("verify", FIG1A, "--trials", "0"),
            ("verify", FIG1A, "--tol", "-1e-9"),
            ("refute", FIG1C, "--trials", "-3"),
            ("refute", FIG1C, "--delta", "-0.01"),
            ("paths", FIG1A, "--max-len", "-1"),
        ],
    )
    def test_rejects_empty_or_negative_settings(self, capsys, verb, graph, option, value):
        # a run of zero trials would report "verified" or "no counterexample"
        code, out, err = invoke(
            capsys, verb, "--graph", graph, "-X", "X", "-Y", "Y", "-Z", "Z", f"{option}={value}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


# Directory the ``adjustkit`` under test was imported from, so that child
# processes run this code whether or not the package is installed.
SOURCE_ROOT = str(Path(adjustkit.__file__).resolve().parent.parent)
PYPROJECT = FIXTURE_DIR.parent / "pyproject.toml"


def adjust_query(graph):
    return ["check-adjust", "--graph", graph, "-X", "X", "-Y", "Y", "-Z", "Z", "--json"]


def run_python(*argv):
    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env
    )


@pytest.fixture
def script_shim(tmp_path):
    """The wrapper an installer writes for the ``adjustkit`` entry point in
    ``[project.scripts]``: import the target callable and exit with what it
    returns."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["adjustkit"]
    module, attr = entry.split(":")
    shim = tmp_path / "adjustkit"
    shim.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    return shim


class TestConsoleScript:
    def test_installed_script(self, script_shim):
        proc = run_python(str(script_shim), *adjust_query(FIG1B))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["holds"] is True

    def test_script_exit_status(self, script_shim):
        proc = run_python(str(script_shim), *adjust_query(FIG1C))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["holds"] is False
        proc = run_python(str(script_shim), "check-adjust", "-X", "X", "-Y", "Y")
        assert proc.returncode == 2
        assert "--graph" in proc.stderr

    @pytest.mark.skipif(
        shutil.which("adjustkit") is None, reason="no adjustkit script on PATH"
    )
    def test_script_on_path(self):
        script = shutil.which("adjustkit")
        assert script is not None
        proc = subprocess.run(
            [script, *adjust_query(FIG1B)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["holds"] is True

    def test_module_run(self):
        for module in ("adjustkit.cli", "adjustkit"):
            proc = run_python("-m", module, *adjust_query(FIG1C))
            assert proc.returncode == 1, (module, proc.stderr)
            assert json.loads(proc.stdout)["holds"] is False
            proc = run_python("-m", module, *adjust_query(FIG1B))
            assert proc.returncode == 0, (module, proc.stderr)
            assert json.loads(proc.stdout)["holds"] is True
