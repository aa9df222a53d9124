import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_does_what_its_comments_say():
    # runs the README's python block statement by statement, keeping the
    # value of each bare expression, the lines the comments annotate
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    constant, holds, fractions = values
    assert constant == 1.0
    assert holds is True
    assert all(a < b for a, b in zip(fractions, fractions[1:]))
    assert max(fractions) < 1.0
