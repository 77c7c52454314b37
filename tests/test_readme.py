"""The README's library quickstart runs and prints what its comments say,
and its library surface names every export."""

import ast
import re
from pathlib import Path

import galaxyck

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_source():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under 'Library quickstart'"
    return match.group(1)


def test_readme_quickstart_results_match_its_comments():
    source = quickstart_source()
    lines = source.splitlines()
    namespace: dict = {}
    comments, results = [], []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].partition("#")[2]
            comments.append(comment.split()[0].rstrip(":"))
            expr = compile(ast.Expression(node.value), "README.md", "eval")
            results.append(str(eval(expr, namespace)))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert comments == ["2*w+0", "True", "False", "False"]
    assert results == comments


def test_library_surface_names_every_export():
    section = README.read_text(encoding="utf-8").partition("## Library surface")[2]
    section = section.partition("\n## ")[0]
    named = set(re.findall(r"^- `([^`]+)`", section, re.M))
    assert sorted(set(galaxyck.__all__) - named) == []
