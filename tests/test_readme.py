"""The library example and the command-line examples in README.md run
against the current API."""

import json
import re
import shlex
from pathlib import Path

from pasmpoly import Partition, PasmPolytope, SkewShape
from pasmpoly.cli import main

from families import staircase

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_examples(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    commands = [line for block in re.findall(r"```\n(.*?)```", text, re.DOTALL)
                for line in block.splitlines() if line.startswith("pasmpoly ")]
    assert len(commands) == 9
    # check reads a point of (4,2,2)/(3,1); phi takes a square matrix.
    point = PasmPolytope(SkewShape(Partition([4, 2, 2]), Partition([3, 1]))).vertices()[0]
    vertex = PasmPolytope(SkewShape(staircase(4), Partition(), 4, 4)).vertices()[0]
    files = {"point.json": point, "vertex.json": vertex}
    for name, matrix in files.items():
        (tmp_path / name).write_text(json.dumps(matrix.to_json_dict()), encoding="utf-8")
    for line in commands:
        argv = [str(tmp_path / arg) if arg in files else arg for arg in shlex.split(line)[1:]]
        assert main(argv) == 0, line
        assert capsys.readouterr().err == "", line
