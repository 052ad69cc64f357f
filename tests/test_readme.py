"""README's Quick start runs as printed: each bare expression in its
Python block evaluates to the value its comment states."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_its_comments():
    source = quick_start_block()
    lines = source.splitlines()
    namespace: dict = {}
    stated = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.lineno - 1].split("#", 1)[1].strip()
        value = re.match(r"'[^']*'|[^:\s]+", comment).group(0)
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert repr(got) == value, (ast.unparse(node), comment)
        stated.append(value)
    assert stated == ["'1001111011010'", "'01110011111111001110'", "True", "124"]
