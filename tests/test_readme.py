"""The README's examples run as written, with a shorter horizon and holdout."""

import re
import shlex
from pathlib import Path

from invlinopt.harness.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SHORTER = {"--rounds": "300", "--holdout": "200"}


def fenced_block(heading, language):
    section = README.split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs():
    exec(compile(fenced_block("## Library quickstart", "python"), "README", "exec"), {})


def test_cli_run_certify_eval_lines_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = fenced_block("## CLI", "").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines]
    assert [argv[0] for argv in commands] == ["run", "sweep", "certify", "eval"]
    for argv in commands:
        if argv[0] == "sweep":
            continue  # exits 1 by design; see the README
        for flag, value in SHORTER.items():
            if flag in argv:
                argv[argv.index(flag) + 1] = value
        assert main(argv) == 0, argv
