"""Compare the CLI outputs of this working tree with those of a git revision,
and check this tree's outputs against what the corpus expects of them.

Usage::

    python tools/parity.py --base REV

REV is checked out into a temporary ``git worktree``.  Every entry of
``tools/parity_corpus.json`` then runs at each of the corpus's seeds, once
with REV's ``src`` and once with this tree's, in directories of the same
layout, so relative paths in messages agree.  An entry is one config plus a list of commands, each run
as ``python -m dnls.cli COMMAND [ARGS] --config config.json --out out
--seed SEED`` in the entry's directory; the optional ``files`` are written
under that directory first (a solution CSV for ``verify``, say).

The two runs are compared on exit codes, stdout, stderr and every file left
in the directory.  JSON documents (stdout and ``*.json``) are compared value
by value and each differing key path is named; CSV files cell by cell.

Each entry's ``expect`` block states what this tree's run must give,
whatever REV gives:

- ``exit``, ``stderr_lines`` and optionally ``stdout_lines``: one exit code
  and one line count per command;
- ``absent``: paths that must not exist after the run;
- ``values``: ``{file: {key path: value}}``, with key paths as the
  comparison prints them (``odd.degree_estimate``, ``zeros[0].sign``);
- ``rerun: true``: the entry runs once more with the child held to one CPU,
  and the two runs must not differ.

Each unmet expectation prints one ``FAIL`` line.  ``--base HEAD`` checks the
whole contract of the working tree.

A change that moves bytes on purpose declares the runs it moves in
``tools/parity_moves.json``: ``{"base": "<full commit id>", "runs":
[["entry", seed], ...]}``.  The declaration holds only when REV is that
commit, so it lapses with the next commit.  A declared run may differ in
stdout and in its files, and those differences are printed marked
"moved (declared)"; its exit codes and stderr must still match.  Exits 0
when no undeclared difference and no failed expectation is left and 1
otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: differences listed per compared document before the rest are counted
MAX_LISTED = 12
#: prefix of a difference that a declared move allows
MOVED = "moved (declared)"


def pin_to_one_cpu() -> None:
    """Hold the calling process to the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_entry(src: Path, entry: dict, seed: int, where: Path, one_cpu: bool = False) -> dict:
    """Run one corpus entry at one seed with the package under ``src``;
    returns each command's exit code, stdout and stderr, and every file the
    entry's directory holds afterwards.  With ``one_cpu`` the commands run
    on one CPU where the platform can say so."""
    where.mkdir(parents=True)
    (where / "config.json").write_text(json.dumps(entry["config"]))
    for name, text in entry.get("files", {}).items():
        (where / name).parent.mkdir(parents=True, exist_ok=True)
        (where / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(src)}
    pin = pin_to_one_cpu if one_cpu and hasattr(os, "sched_setaffinity") else None
    runs = []
    for command in entry["commands"]:
        args = [*command, "--config", "config.json", "--out", "out", "--seed", str(seed)]
        done = subprocess.run([sys.executable, "-m", "dnls.cli", *args], cwd=where, env=env,
                              capture_output=True, text=True, timeout=600, preexec_fn=pin)
        runs.append({"args": args, "exit": done.returncode, "stdout": done.stdout,
                     "stderr": done.stderr})
    files = {str(p.relative_to(where)): p.read_bytes() for p in sorted(where.rglob("*"))
             if p.is_file()}
    return {"runs": runs, "files": files}


def json_diff(a, b, path: str = "") -> list[str]:
    """Key paths at which two decoded JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                out.append(f"{sub}: only in {'base' if key in a else 'head'}")
            else:
                out.extend(json_diff(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path or '<root>'}: length {len(a)} -> {len(b)}"]
        return [line for i, (x, y) in enumerate(zip(a, b))
                for line in json_diff(x, y, f"{path}[{i}]")]
    # dumps tells 1 from 1.0 and matches NaN with NaN
    if json.dumps(a) != json.dumps(b):
        return [f"{path or '<root>'}: {json.dumps(a)} -> {json.dumps(b)}"]
    return []


def text_diff(name: str, a: str, b: str) -> list[str]:
    """Differences of two texts: JSON by key path, CSV by cell, else the
    first differing line."""
    if a == b:
        return []
    if name.endswith(".csv"):
        return csv_diff(a, b)
    try:
        return json_diff(json.loads(a), json.loads(b)) or ["same JSON values, different bytes"]
    except ValueError:
        pass
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x, y = (lines[i] if i < len(lines) else None for lines in (la, lb))
        if x != y:
            return [f"line {i + 1}: {x!r} -> {y!r}"]
    return ["same lines, different bytes"]


def csv_diff(a: str, b: str) -> list[str]:
    ra, rb = a.splitlines(), b.splitlines()
    if not ra or not rb or ra[0] != rb[0]:
        return [f"header {ra[:1]} -> {rb[:1]}"]
    if len(ra) != len(rb):
        return [f"{len(ra) - 1} rows -> {len(rb) - 1} rows"]
    header = ra[0].split(",")
    out = []
    for i, (x, y) in enumerate(zip(ra[1:], rb[1:])):
        for col, u, v in zip(header, x.split(","), y.split(",")):
            if u != v:
                out.append(f"row {i + 1} ({x.split(',')[0]}...) {col}: {u} -> {v}")
    return out or ["same cells, different bytes"]


def compare(base: dict, head: dict, declared: bool = False) -> list[str]:
    """Every difference between two results of ``run_entry``.  For a
    ``declared`` run, those in stdout and in files start with MOVED."""
    out: list[str] = []

    def note(where: str, lines: list[str], movable: bool = True) -> None:
        if declared and movable:
            where = f"{MOVED} {where}"
        out.extend(f"{where}: {line}" for line in lines[:MAX_LISTED])
        if len(lines) > MAX_LISTED:
            out.append(f"{where}: ... and {len(lines) - MAX_LISTED} more")

    for a, b in zip(base["runs"], head["runs"]):
        label = " ".join(a["args"][:1])
        if a["exit"] != b["exit"]:
            note(label, [f"exit code {a['exit']} -> {b['exit']}"], movable=False)
        for stream in ("stdout", "stderr"):
            note(f"{label} {stream}", text_diff(stream, a[stream], b[stream]),
                 movable=stream == "stdout")
    for name in sorted(set(base["files"]) | set(head["files"])):
        if name not in base["files"] or name not in head["files"]:
            note(name, [f"only in {'base' if name in base['files'] else 'head'}"])
            continue
        a, b = base["files"][name], head["files"][name]
        if a != b:
            note(name, text_diff(name, a.decode(errors="replace"), b.decode(errors="replace")))
    return out


def declared_moves(path: Path, base_commit: str) -> set[tuple[str, int]]:
    """The (entry, seed) runs that ``path`` declares moved against
    ``base_commit``, a full commit id; none when the file is absent or
    declares them against another commit."""
    if not path.exists():
        return set()
    moves = json.loads(path.read_text())
    if moves["base"] != base_commit:
        return set()
    return {(name, seed) for name, seed in moves["runs"]}


def lookup(doc, path: str):
    """The value at a key path such as ``odd.degree_estimate`` or
    ``zeros[0].sign``; raises LookupError when there is none."""
    for index, key in re.findall(r"\[(\d+)\]|([^.\[]+)", path):
        try:
            doc = doc[int(index)] if index else doc[key]
        except (IndexError, KeyError, TypeError) as exc:
            raise LookupError(path) from exc
    return doc


def check(expect: dict, result: dict, again: dict | None = None) -> list[str]:
    """Every expectation of an ``expect`` block that a result of
    ``run_entry`` misses, one ``KEY: expected ... got ...`` line each.
    ``again`` is the same run on one CPU, which ``rerun`` compares."""
    runs = result["runs"]
    got = {"exit": [run["exit"] for run in runs],
           "stderr_lines": [len(run["stderr"].splitlines()) for run in runs],
           "stdout_lines": [len(run["stdout"].splitlines()) for run in runs]}
    out = [f"{key}: expected {expect[key]} got {got[key]}"
           for key in got if key in expect and expect[key] != got[key]]
    for name in expect.get("absent", []):
        if any(f == name or f.startswith(f"{name}/") for f in result["files"]):
            out.append(f"{name}: expected absent got present")
    for name, values in expect.get("values", {}).items():
        if name not in result["files"]:
            out.append(f"{name}: expected a file got none")
            continue
        doc = json.loads(result["files"][name])
        for path, value in values.items():
            try:
                actual = json.dumps(lookup(doc, path))
            except LookupError:
                actual = "nothing"
            if actual != json.dumps(value):
                out.append(f"{name} {path}: expected {json.dumps(value)} got {actual}")
    if expect.get("rerun"):
        out.extend(f"rerun on one CPU: {line}" for line in compare(result, again))
    return out


def run_checked(src: Path, entry: dict, seed: int, where: Path) -> tuple[dict, list[str]]:
    """``run_entry`` and the ``check`` of its result against the entry's
    ``expect`` block; a ``rerun`` runs once more next to ``where``."""
    result = run_entry(src, entry, seed, where)
    again = None
    if entry["expect"].get("rerun"):
        again = run_entry(src, entry, seed, where.with_name(f"{where.name}-one-cpu"),
                          one_cpu=True)
    return result, check(entry["expect"], result, again)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    corpus = json.loads((ROOT / "tools" / "parity_corpus.json").read_text())
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{args.base}^{{commit}}"], check=True, capture_output=True,
                            text=True).stdout.strip()
    moves = declared_moves(ROOT / "tools" / "parity_moves.json", commit)

    differing = moved = runs = failed = 0
    with tempfile.TemporaryDirectory(prefix="dnls-parity-") as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.base], check=True)
        try:
            for entry in corpus["entries"]:
                for seed in corpus["seeds"]:
                    name = entry["name"]
                    base = run_entry(tree / "src", entry, seed,
                                     Path(tmp) / "run-base" / name / str(seed))
                    head, failures = run_checked(ROOT / "src", entry, seed,
                                                 Path(tmp) / "run-head" / name / str(seed))
                    diffs = compare(base, head, declared=(name, seed) in moves)
                    undeclared = any(not line.startswith(MOVED) for line in diffs)
                    runs += 1
                    differing += undeclared
                    moved += bool(diffs) and not undeclared
                    failed += len(failures)
                    codes = " ".join(str(r["exit"]) for r in head["runs"])
                    mark = "DIFF" if undeclared else "moved" if diffs else "same"
                    print(f"{mark}  {name}  seed {seed}  exit {codes}", flush=True)
                    for line in diffs:
                        print(f"    {line}", flush=True)
                    for line in failures:
                        print(f"FAIL  {name}  seed {seed}  {line}", flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)
    print(f"{differing} of {runs} runs differ from {args.base}, "
          f"{moved} more moved as declared; {failed} failed expectations")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
