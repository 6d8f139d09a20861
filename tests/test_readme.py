"""The README's library quick start runs as written, and its CLI examples parse."""

import re
import shlex
from pathlib import Path

from ricemarlin.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_examples_parse():
    # nothing is run: a flag the parser does not know exits with usage error 2
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("ricemarlin ")
    ]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
