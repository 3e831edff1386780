"""The README's Python quick start runs as written, and its config key
lists name the fields of the config dataclasses."""

import pathlib
import re
from dataclasses import fields

from msprobit import ChainConfig, Design, Prior

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def _listed_keys(section: str, lead: str) -> list[str]:
    """The backticked names in the paragraph of a README ### section that
    starts with lead."""
    text = README.read_text().split(f"\n### {section}\n", 1)[1].split("\n### ", 1)[0]
    paragraph = text[text.index(lead):].split("\n\n", 1)[0]
    return re.findall(r"`([a-z_]+)`", paragraph)


def test_readme_config_keys_match_the_schema():
    simulate = _listed_keys("simulate", "Config keys:")
    assert sorted(simulate) == sorted([f.name for f in fields(Design)] + ["seed"])
    fit = _listed_keys("fit", "Chain config keys:")
    assert sorted(fit) == sorted(f.name for f in fields(ChainConfig) + fields(Prior))
