"""The package's top-level names."""

import ast
import re
import shlex
from pathlib import Path

from boxtrace import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_imports_resolve():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [node for node in ast.parse(block).body
               if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports] == ["boxtrace"]
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README", "exec"),
         {})


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert commands and all(argv[0] == "boxtrace" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "tree.dot").read_text(encoding="utf-8").startswith("digraph")
