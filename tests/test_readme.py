import re
from pathlib import Path

from timebinsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    # a public name that the README uses but the package no longer has fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def _written(default):
    """A table default as the README writes it: as a config file would, in backticks."""
    if callable(default):
        return "the params' `n_g`"  # the one computed default, n_g_list's
    if default == {}:
        return "none"
    items = default if isinstance(default, tuple) else (default,)
    return "`" + ",".join(cli._fmt(getattr(v, "value", v)) for v in items) + "`"


def test_readme_options_table_matches_the_scenario_tables():
    rows = re.findall(r"^\| `([\w.*]+)` \| ((?:`\w+`(?:, )?)+) \| ([^|]+) \|",
                      README.read_text(encoding="utf-8"), re.M)
    documented = {key: (set(re.findall(r"`(\w+)`", read_by)), default.strip())
                  for key, read_by, default in rows}
    assert len(documented) == len(rows), "a key is listed twice"
    declared = {}
    for name, (_, table) in cli.SCENARIOS.items():
        for key, (_, default) in table.items():
            declared.setdefault(key, (set(), _written(default)))[0].add(name)
    assert documented == declared
