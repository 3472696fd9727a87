"""The output-parity tool's comparison of two runs, its check of a run
against the corpus's expectations, and the corpus."""

import importlib.util
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
CORPUS = json.loads((TOOLS / "parity_corpus.json").read_text())
_spec = importlib.util.spec_from_file_location("parity", TOOLS / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def _result(code=0, stdout="", stderr="", **files):
    return {"runs": [{"args": ["certify", "--config", "config.json"], "exit": code,
                      "stdout": stdout, "stderr": stderr}],
            "files": {name: text.encode() for name, text in files.items()}}


def test_json_differences_are_named_by_key_path():
    base = {"certificate": {"radius": 1.0, "boundary": {"n": 3}}, "zeros": [{"sign": 1}]}
    head = {"certificate": {"radius": 1.0000000000000002, "boundary": {}},
            "zeros": [{"sign": -1}]}
    assert parity.json_diff(base, head) == [
        "certificate.boundary.n: only in base",
        "certificate.radius: 1.0 -> 1.0000000000000002",
        "zeros[0].sign: 1 -> -1",
    ]
    assert parity.json_diff({"x": 1}, {"x": 1.0}) == ["x: 1 -> 1.0"]
    assert parity.json_diff([1, 2], [1]) == ["<root>: length 2 -> 1"]


def test_every_stream_file_and_exit_code_is_compared():
    doc = json.dumps({"radius": 2.5})
    base = _result(0, doc, "", **{"out/steady.csv": "k,re,im\n0,1,0\n1,2,0\n"})
    assert parity.compare(base, base) == []
    head = _result(2, json.dumps({"radius": 2.25}), "certificate error: x\n",
                   **{"out/steady.csv": "k,re,im\n0,1,0\n1,2,1e-17\n", "out/extra.json": "{}"})
    assert parity.compare(base, head) == [
        "certify: exit code 0 -> 2",
        "certify stdout: radius: 2.5 -> 2.25",
        "certify stderr: line 1: None -> 'certificate error: x'",
        "out/extra.json: only in head",
        "out/steady.csv: row 2 (1...) im: 0 -> 1e-17",
    ]


def test_corpus_covers_every_command_at_two_seeds():
    corpus = json.loads((TOOLS / "parity_corpus.json").read_text())
    assert corpus["seeds"] == [4, 1001]
    names = [entry["name"] for entry in corpus["entries"]]
    assert len(names) == len(set(names))
    commands = {cmd[0] for entry in corpus["entries"] for cmd in entry["commands"]}
    assert commands == {"certify", "solve", "steady", "verify", "degree"}


def test_corpus_checks_the_boundary_skip_for_every_kind():
    # the boundary check skips forcing halves by the forcing's closed-form
    # sup and then by each sample's own forcing term; the corpus covers each
    # kind, and a power law of exponent 3, whose sup is 0 inside its
    # threshold of 0
    corpus = json.loads((TOOLS / "parity_corpus.json").read_text())
    covered = set()
    for entry in corpus["entries"]:
        config = entry["config"]
        if isinstance(config, dict) and any(
                command[0] in ("certify", "solve") for command in entry["commands"]):
            potential = config["potential"]
            covered.add((potential["kind"], potential.get("exponent", 0) >= 3))
    assert covered >= {("bounded", False), ("zero", False), ("constant", False),
                       ("power_law", False), ("power_law", True)}


def _undeclared(lines):
    return [line for line in lines if not line.startswith(parity.MOVED)]


def test_a_declared_run_may_move_stdout_and_files():
    base = _result(0, json.dumps({"radius": 2.5}), **{"out/report.json": '{"x": 1}'})
    head = _result(0, json.dumps({"radius": 2.25}), **{"out/report.json": '{"x": 2}'})
    lines = parity.compare(base, head, declared=True)
    assert lines == [
        "moved (declared) certify stdout: radius: 2.5 -> 2.25",
        "moved (declared) out/report.json: x: 1 -> 2",
    ]
    assert _undeclared(lines) == []


def test_an_undeclared_run_that_moves_is_a_difference():
    base = _result(0, json.dumps({"radius": 2.5}))
    head = _result(0, json.dumps({"radius": 2.25}))
    assert _undeclared(parity.compare(base, head)) == ["certify stdout: radius: 2.5 -> 2.25"]


def test_a_declared_run_keeps_its_exit_code_and_stderr():
    base = _result(0, json.dumps({"radius": 2.5}))
    head = _result(2, json.dumps({"radius": 2.25}), "certificate error: x\n")
    assert _undeclared(parity.compare(base, head, declared=True)) == [
        "certify: exit code 0 -> 2",
        "certify stderr: line 1: None -> 'certificate error: x'",
    ]


def test_moves_hold_only_against_their_base_commit(tmp_path):
    path = tmp_path / "parity_moves.json"
    assert parity.declared_moves(path, "a" * 40) == set()
    path.write_text(json.dumps({"base": "a" * 40, "runs": [["bench-solve-32x32", 4]]}))
    assert parity.declared_moves(path, "a" * 40) == {("bench-solve-32x32", 4)}
    assert parity.declared_moves(path, "b" * 40) == set()


def test_committed_moves_name_corpus_runs():
    path = TOOLS / "parity_moves.json"
    if not path.exists():
        # a lapsed declaration is deleted: then nothing is declared
        assert parity.declared_moves(path, "0" * 40) == set()
        return
    moves = json.loads(path.read_text())
    corpus = json.loads((TOOLS / "parity_corpus.json").read_text())
    runs = {(entry["name"], seed) for entry in corpus["entries"] for seed in corpus["seeds"]}
    assert len(moves["base"]) == 40
    assert {tuple(run) for run in moves["runs"]} <= runs


_EXPECT = {"exit": [1], "stderr_lines": [1]}


@pytest.mark.parametrize("expect, result, line", [
    ({**_EXPECT, "exit": [0]}, _result(1, stderr="error: x\n"), "exit: expected [0] got [1]"),
    (_EXPECT, _result(1, stderr="error: x\nmore\n"), "stderr_lines: expected [1] got [2]"),
    ({**_EXPECT, "stdout_lines": [0]}, _result(1, "{}\n", "error: x\n"),
     "stdout_lines: expected [0] got [1]"),
    ({**_EXPECT, "absent": ["out/report.json"]},
     _result(1, stderr="error: x\n", **{"out/report.json": "{}"}),
     "out/report.json: expected absent got present"),
    ({**_EXPECT, "absent": ["out/solution.csv"]},
     _result(1, stderr="error: x\n", **{"out/solution.csv/keep": ""}),
     "out/solution.csv: expected absent got present"),
    ({**_EXPECT, "values": {"out/degree.json": {"flag": "INCOMPLETE-ENUMERATION"}}},
     _result(1, stderr="error: x\n"), "out/degree.json: expected a file got none"),
    ({**_EXPECT, "values": {"out/degree.json": {"full.degree_estimate": 1}}},
     _result(1, stderr="error: x\n", **{"out/degree.json": '{"full": {"degree_estimate": 0}}'}),
     "out/degree.json full.degree_estimate: expected 1 got 0"),
    ({**_EXPECT, "values": {"out/degree.json": {"full.degree_estimate": 1}}},
     _result(1, stderr="error: x\n", **{"out/degree.json": '{"full": {"degree_estimate": 1.0}}'}),
     "out/degree.json full.degree_estimate: expected 1 got 1.0"),
    ({**_EXPECT, "values": {"out/degree.json": {"zeros[1].sign": -1}}},
     _result(1, stderr="error: x\n", **{"out/degree.json": '{"zeros": [{"sign": 1}]}'}),
     "out/degree.json zeros[1].sign: expected -1 got nothing"),
], ids=["exit", "stderr", "stdout", "absent-file", "absent-dir", "values-file", "value",
        "int-vs-float", "missing-key"])
def test_each_unmet_expectation_is_one_line_naming_its_key(expect, result, line):
    assert parity.check(expect, result) == [line]


def test_met_expectations_give_no_line():
    doc = {"flag": "INCOMPLETE-ENUMERATION", "odd": {"degree_estimate": 1}, "zeros": [{"sign": -1}]}
    result = _result(4, "{}\n", **{"out/degree.json": json.dumps(doc)})
    expect = {"exit": [4], "stderr_lines": [0], "stdout_lines": [1], "absent": ["out/report.json"],
              "values": {"out/degree.json": {"flag": "INCOMPLETE-ENUMERATION",
                                             "odd.degree_estimate": 1, "zeros[0].sign": -1}}}
    assert parity.check(expect, result) == []


def test_a_rerun_that_differs_is_a_failure():
    first = _result(0, json.dumps({"cores": 2}))
    expect = {"exit": [0], "stderr_lines": [0], "rerun": True}
    assert parity.check(expect, first, first) == []
    assert parity.check(expect, first, _result(0, json.dumps({"cores": 1}))) == [
        "rerun on one CPU: certify stdout: cores: 2 -> 1"]


def test_every_entry_states_its_exit_contract():
    for entry in CORPUS["entries"]:
        expect, count = entry["expect"], len(entry["commands"])
        assert len(expect["exit"]) == len(expect["stderr_lines"]) == count, entry["name"]
        assert len(expect.get("stdout_lines", entry["commands"])) == count, entry["name"]
        assert set(expect) <= {"exit", "stderr_lines", "stdout_lines", "absent", "values", "rerun"}
        if entry["name"].startswith("exit"):
            # the name states the intended exit: exit1-..., exit4-...
            assert expect["exit"] == [int(entry["name"][4])], entry["name"]
    codes = {code for entry in CORPUS["entries"] for code in entry["expect"]["exit"]}
    assert codes == {0, 1, 2, 3, 4}


# picked by name too, so that an expectation edited to exit 0 keeps its entry here
_FAILING = [entry for entry in CORPUS["entries"]
            if all(entry["expect"]["exit"]) or entry["name"].startswith("exit")]


@pytest.fixture(scope="module")
def contract_failures(tmp_path_factory):
    # each run is mostly an interpreter and numpy start-up, so two at a time
    # halve the wait on two cores
    where = tmp_path_factory.mktemp("contract")
    with ThreadPoolExecutor(2) as pool:
        runs = {entry["name"]: pool.submit(parity.run_checked, ROOT / "src", entry, 4,
                                           where / entry["name"] / "4") for entry in _FAILING}
    return {name: run.result()[1] for name, run in runs.items()}


@pytest.mark.parametrize("entry", _FAILING, ids=[entry["name"] for entry in _FAILING])
def test_corpus_exit_contract(entry, contract_failures):
    assert contract_failures[entry["name"]] == []


def test_rerun_runs_the_entry_again_on_one_cpu(tmp_path):
    entry = next(e for e in CORPUS["entries"] if e["name"] == "degree-zero-2x2")
    entry = {**entry, "expect": {**entry["expect"], "rerun": True}}
    result, failures = parity.run_checked(ROOT / "src", entry, 4, tmp_path / "4")
    assert failures == []
    again = tmp_path / "4-one-cpu" / "out" / "degree.json"
    assert again.read_bytes() == result["files"]["out/degree.json"]
    if hasattr(os, "sched_setaffinity"):
        script = "import os; print(len(os.sched_getaffinity(0)))"
        count = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, preexec_fn=parity.pin_to_one_cpu).stdout
        assert count == "1\n"
