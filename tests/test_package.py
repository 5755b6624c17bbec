"""The package as its users meet it: the README quick start and every __all__.

Run as a script, `python tests/test_package.py` makes both checks against
whichever qmono the interpreter imports, so from outside the checkout it
checks the installed package.
"""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import qmono

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start_output():
    """The lines printed by the README "Library quick start" block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    return out.getvalue().splitlines()


def unresolved_exports():
    """(module, name) for each name in an __all__ of qmono that does not resolve."""
    modules = [qmono] + [importlib.import_module(f"qmono.{m.name}")
                         for m in pkgutil.iter_modules(qmono.__path__)]
    return [(mod.__name__, name) for mod in modules
            for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]


def test_readme_quick_start():
    ghz, minimum = quick_start_output()
    assert ghz == "1.0 0.0"
    assert float(minimum) >= 0.0


def test_every_exported_name_resolves():
    assert unresolved_exports() == []


if __name__ == "__main__":
    test_readme_quick_start()
    test_every_exported_name_resolves()
    print(f"README quick start and __all__ checks pass for {qmono.__file__}")
