"""The README's "Library use" example runs as written, its "Configuration"
table matches the loader's CONFIG table, and every bonnet name it cites
exists."""
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import bonnet
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


def test_every_bonnet_name_the_readme_cites_resolves():
    # `cli._ladder` and `bonnet.rk4.sweep` start at the package or one of its modules,
    # `PipelineData.alpha` at a class of one; `frame.two_path`, `grid.ns` and
    # `np.gradient` name a check, a config key and another package
    modules = {info.name: importlib.import_module(f"bonnet.{info.name}")
               for info in pkgutil.iter_modules(bonnet.__path__)}
    heads = {"bonnet": bonnet, **modules,
             **{name: cls for module in modules.values()
                for name, cls in inspect.getmembers(module, inspect.isclass)
                if cls.__module__.startswith("bonnet.")}}
    cited = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text()))

    def resolves(name):
        head, *attrs = name.split(".")
        obj = heads.get(head)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None

    checked = [name for name in sorted(cited) if name.split(".")[0] in heads or name[0].isupper()]
    assert {"cli.PipelineData", "PipelineData.alpha"} <= set(checked)
    assert [name for name in checked if not resolves(name)] == []
