"""The Python examples, the description-format example and the
command-line examples of the README work as written."""

import ast
import re
import shlex
from pathlib import Path

from foamlab.cli import main
from foamlab.dsl import normalize, parse
from foamlab.statespace import MOY_RELATIONS, WEB_FAMILIES

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
    assert checked == 5


def test_description_format_example_round_trips():
    section = README.read_text().split("## The description format", 1)[1]
    example = re.search(r"^```text\n(.*?)^```", section, re.M | re.S).group(1)
    ff = parse(example)
    assert set(ff.webs) == {"theta"} and set(ff.movies) == {"dotted_sphere"}
    once = normalize(example)
    assert parse(once) == ff and normalize(once) == once


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Each ``foamlab`` line of the command-line block exits 0 on the
    description-format example saved as ``fixtures.foam``, and prints the
    value its ``# ->`` comment states."""
    text = README.read_text()
    example = re.search(
        r"^```text\n(.*?)^```", text.split("## The description format", 1)[1], re.M | re.S
    ).group(1)
    block = re.search(
        r"^```sh\n(.*?)^```", text.split("## Command-line interface", 1)[1], re.M | re.S
    ).group(1)
    (tmp_path / "fixtures.foam").write_text(example)
    monkeypatch.chdir(tmp_path)
    ran, stated = 0, []
    for line in block.replace("\\\n", " ").splitlines():
        m = re.fullmatch(r"foamlab (.*?)(?:\s+# -> (.*))?", line.strip())
        if m is None:
            continue
        try:
            code = main(shlex.split(m.group(1)))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code == 0, line
        if m.group(2) is not None:
            assert out.strip() == m.group(2), line
            stated.append(m.group(2))
        ran += 1
    assert ran == 14 and stated == ["-1", "0", "q^-1 + q"]


def test_family_and_relation_paragraphs_name_the_tables():
    """The generator families and the ``moy-check`` relations the README
    lists are exactly the keys of the tables the command line reads."""
    text = README.read_text()
    for lead, table in (
        ("Generator families for", WEB_FAMILIES),
        ("Relations for `moy-check`", MOY_RELATIONS),
    ):
        paragraph = text.split(lead, 1)[1].split("\n\n", 1)[0]
        names = re.findall(r"`([a-z_]+)", paragraph.split(": ", 1)[1])
        assert names == list(table), lead
