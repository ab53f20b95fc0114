"""The Python examples and the description-format example of the README
work as written."""

import ast
import re
from pathlib import Path

from foamlab.dsl import normalize, parse

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The fenced ``python`` blocks of ``text``, in order."""
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def stated_values(block):
    """``(expression, value)`` for each line ``expression  # value`` whose
    comment is a Python literal, such as ``# True`` or ``# {-1: 1, 1: 1}``."""
    for line in block.splitlines():
        code, sep, comment = line.partition("  #")
        if not sep:
            continue
        try:
            ast.parse(code.strip(), mode="eval")
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        yield code.strip(), value


def test_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 3
    namespace = {}
    checked = 0
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
        for code, value in stated_values(block):
            assert eval(code, namespace) == value, code
            checked += 1
    assert checked == 4


def test_description_format_example_round_trips():
    section = README.read_text().split("## The description format", 1)[1]
    example = re.search(r"^```text\n(.*?)^```", section, re.M | re.S).group(1)
    ff = parse(example)
    assert set(ff.webs) == {"theta"} and set(ff.movies) == {"dotted_sphere"}
    once = normalize(example)
    assert parse(once) == ff and normalize(once) == once
