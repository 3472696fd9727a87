"""The output-parity tool's comparison of two runs, and its corpus."""

import importlib.util
import json
from pathlib import Path

import pytest

from dnls.operators import DENSE_APPLY_MAX_DIM

TOOLS = Path(__file__).resolve().parent.parent / "tools"
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
    # the boundary check skips forcing halves on FFT lattices only, by the
    # forcing's closed-form sup or, for a sampled power law, by each
    # sample's own forcing term; the corpus covers each kind there
    corpus = json.loads((TOOLS / "parity_corpus.json").read_text())
    covered = set()
    for entry in corpus["entries"]:
        config = entry["config"]
        if isinstance(config, dict) and config["T"] * config["K"] > DENSE_APPLY_MAX_DIM and any(
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
        pytest.skip("no moves declared")
    moves = json.loads(path.read_text())
    corpus = json.loads((TOOLS / "parity_corpus.json").read_text())
    runs = {(entry["name"], seed) for entry in corpus["entries"] for seed in corpus["seeds"]}
    assert len(moves["base"]) == 40
    assert {tuple(run) for run in moves["runs"]} <= runs
