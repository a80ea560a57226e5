"""The README's "Library use" example runs as written, and its
"Configuration" table matches the loader's CONFIG table."""
import json
import re
from pathlib import Path

from bonnet.cli import CONFIG

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library use section holds one python block"
    return blocks[0]


def test_library_use_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), "README.md (Library use)", "exec"), namespace)
    assert (tmp_path / "surface.obj").stat().st_size > 0
    assert namespace["frame2"].orthonormality_error() < 1e-12


def test_configuration_table_lists_every_key_and_default():
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w.]+)` \|.*\| (required|`[^`]*`) \|$", section, flags=re.M))
    table = {
        f"{name}.{key}" if key else name: entry[1]
        for name, spec in CONFIG.items()
        for key, entry in (spec.items() if isinstance(spec, dict) else [(None, spec)])
    }
    assert rows == {
        path: "required" if default is ... else f"`{json.dumps(default)}`"
        for path, default in table.items()
    }
