"""The process entry point, `symbidisc.__main__.run`: `python -m symbidisc` and what the
console-script wrapper runs give what `cli.main` gives in process, and only `run` freezes
the collector."""

import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from symbidisc import cli
from symbidisc.__main__ import run

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
POINT = '{"s": {"re": 0.1, "im": 0.2}, "p": {"re": 0.05, "im": -0.01}}'
SHEAR_CANDIDATE = json.dumps({"terms": [{"j": 0, "k": 1, "S": 1, "P": 2},
                                        {"j": 1, "k": 0, "S": 1, "P": 0}]})

# one input per command and output format, then one exit-64 and one exit-65 input
CASES = {
    "membership": ["membership", POINT],
    "apply": ["apply", '{"h": {"tau": {"re": 0, "im": 1}, "a": {"re": 0.2, "im": 0.1}}}',
              POINT],
    "transport": ["transport", '{"s": 0.8, "p": 0.16}'],
    "transport_off": ["transport", POINT],
    "commutator": ["commutator", SHEAR_CANDIDATE, "--tau", '{"re": 0, "im": 1}'],
    "orbit_csv": ["orbit", POINT, "--samples", "20", "--seed", "7"],
    "orbit_json": ["orbit", POINT, "--samples", "20", "--format", "json"],
    "usage_64": ["membership", '{"s": 0.1}'],
    "failed_65": ["commutator", '{"terms": []}', "--tau", "-1"],
}
EXIT_CODES = {"membership": 0, "apply": 0, "transport": 0, "transport_off": 3,
              "commutator": 4, "orbit_csv": 0, "orbit_json": 0, "usage_64": 64, "failed_65": 65}
STARTS = {"-m": ["-m", "symbidisc"],
          "wrapper": ["-c", "from symbidisc.__main__ import run; raise SystemExit(run())"]}


def test_the_console_script_calls_run():
    # pyproject.toml's [project.scripts] entry, which pip turns into STARTS["wrapper"]
    text = (ROOT / "pyproject.toml").read_text()
    module, _, name = re.search(r'^symbidisc = "(.+)"$', text, re.MULTILINE)[1].partition(":")
    assert getattr(importlib.import_module(module), name) is run


def in_process(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_process_gives_what_main_gives_in_process(capsys, monkeypatch, tmp_path, case, start):
    # the wrapper's line is what pip's console script `symbidisc` runs; the working
    # directory holds no package, so the interpreter imports the one under src; both
    # sides wrap argparse's usage line at the same width
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *STARTS[start], *CASES[case]], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    expected = in_process(capsys, CASES[case])
    assert expected[0] == EXIT_CODES[case]
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("case", ["membership", "orbit_csv", "usage_64"])
def test_main_leaves_the_collector_unfrozen(capsys, case):
    # tests, tools and perfbench call cli.main in process, which must not freeze
    before = gc.get_freeze_count()
    in_process(capsys, CASES[case])
    assert gc.get_freeze_count() == before


def test_run_freezes_after_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["symbidisc", *CASES["transport_off"]])
    expected = in_process(capsys, CASES["transport_off"])
    before = gc.get_freeze_count()
    try:
        code = run()
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
