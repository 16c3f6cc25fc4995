"""The README's Library examples run as written."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_blocks():
    """The ``python`` blocks of the README's Library section, in order."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = re.search(r"^## Library\n(.*?)^## ", text, re.M | re.S).group(1)
    return re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)


def test_library_examples_run(tmp_path, monkeypatch):
    blocks = library_blocks()
    assert len(blocks) >= 4
    assert sum(block.count('out_dir="out"') for block in blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        block = block.replace('out_dir="out"', f"out_dir={str(tmp_path / 'out')!r}")
        exec(compile(block, "README.md", "exec"), namespace)
    assert sorted(os.listdir(tmp_path / "out")) == sorted(namespace["state"].written)
