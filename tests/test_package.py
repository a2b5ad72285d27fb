"""The package's top-level names."""

import ast
import re
from pathlib import Path

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
