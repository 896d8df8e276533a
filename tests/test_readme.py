"""The README's Python API example runs as written; its key table is the code's."""

import math
import re
from pathlib import Path

from nmzi.config import KEYS

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


# A row of the README's key table: key, flag cell, modes, default cell.
KEY_ROW = re.compile(r"^\| `([a-z]+)(?:\.<param>)?` \| (.*?) \| ([a-z, ]+) \| (.*?) \|$", re.M)
# A flag cell: the option string, its metavar if any, and the value a flag
# without one sets.
FLAG_CELL = re.compile(r"`(--[a-z]+)(?: ([^`]+))?`(?: \(sets `([^`]+)`\))?")


def test_config_key_table_states_each_key_as_config_keys_does():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config files"):text.index("### CSV schema")]
    rows = KEY_ROW.findall(section)
    assert sorted(key for key, *_ in rows) == sorted(KEYS)
    for key, flag_cell, modes, default_cell in rows:
        key_modes, default, flag, options = KEYS[key]
        assert tuple(modes.split(", ")) == key_modes, key
        if flag is None:
            assert flag_cell == "the subcommand", key
        else:
            cell = FLAG_CELL.fullmatch(flag_cell)
            assert cell is not None, (key, flag_cell)
            assert cell.groups() == (flag, options.get("metavar"), options.get("const")), key
        if default is not None:
            assert default_cell == default, key
