"""README's library quick start and command-line block run as written."""

import json
import os
import re
import shlex

from bottnull import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = _python_blocks(fh.read())
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```$", fh.read(), re.M | re.S)
    lines = [shlex.split(line, comments=True)[1:]
             for block in blocks for line in block.splitlines()
             if line.startswith("bottnull ")]
    assert lines, "README has no bottnull command line"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tuple.json").write_text(json.dumps({"n": 3, "matrices": [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]]]}))
    for argv in lines:
        code = cli.main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
