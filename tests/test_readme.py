"""README's ```python blocks run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, README.name, "exec"), ns)
    assert ns["a"].verdict == "OK" and ns["a"].rank.full_rank  # as commented
    assert ns["report"]["verdict"] == "OK"
