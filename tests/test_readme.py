"""The README's "Library use" example runs as written."""
import re
from pathlib import Path

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
