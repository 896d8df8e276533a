"""The README's Python API example runs as written; its key table is the code's."""

import math
import re
from pathlib import Path

from nmzi.config import KEY_MODES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["r_ad"][1] - math.sin(1.0) ** 2) < 1e-12
    r_hat, stderr = namespace["r_hat_ad"][1], namespace["stderr_ad"][1]
    assert abs(r_hat - math.sin(1.0) ** 2) <= 5.0 * stderr
    assert namespace["n_pairs"][1] == namespace["fates"][1].sum()


def test_config_key_table_names_each_key_and_the_modes_that_read_it():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config files"):text.index("### CSV schema")]
    rows = re.findall(r"^\| `([a-z]+)(?:\.<param>)?` \|[^|]*\| ([a-z, ]+) \|", section, re.M)
    assert {key: tuple(modes.split(", ")) for key, modes in rows} == KEY_MODES
    assert len(rows) == len(KEY_MODES)
