import importlib
import re
from pathlib import Path

import mrgrid

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\|\s*`(mrgrid\.\w+)`\s*\|(.*)\|\s*$")


def test_readme_module_table_matches_the_package():
    table = {}
    for line in README.read_text().splitlines():
        row = ROW.match(line)
        if row:
            table[row.group(1)] = re.findall(r"`([^`]+)`", row.group(2))
    assert table, "README has no module table"
    for module, names in table.items():
        mod = importlib.import_module(module)
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"{module} lacks {missing}"
    listed = {name for names in table.values() for name in names}
    assert sorted(set(mrgrid.__all__) - listed) == []
