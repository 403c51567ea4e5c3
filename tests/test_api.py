"""The public API: README's documented imports and ``parkfn.__all__``."""

import re
from pathlib import Path

import parkfn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_surface_imports():
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(block, namespace)
    imported = {name for name in namespace if name != "__builtins__"}
    assert imported and imported <= set(parkfn.__all__)


def test_every_exported_name_resolves():
    assert len(set(parkfn.__all__)) == len(parkfn.__all__)
    for name in parkfn.__all__:
        assert getattr(parkfn, name) is not None, name
