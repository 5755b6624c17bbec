"""What a `qmono` process loads: numpy and qmono's own modules, not the
network stack.

Each check starts a fresh interpreter, imports numpy, then a qmono module,
and lists the modules the second import adds.  None may belong to the
`xml`, `urllib`, `http`, `email`, `ssl` or `socket` packages, which a bare
`from xml.sax.saxutils import escape` loads (through `urllib.request`).
Modules numpy loads itself, such as `urllib.parse`, do not count.

Run as a script, `python tests/test_imports.py` checks whichever qmono the
interpreter imports, so from outside the checkout it checks the installed
package.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = ("qmono", "qmono.cli")
NETWORK_PACKAGES = ("xml", "urllib", "http", "email", "ssl", "socket")

_PROBE = """
import sys
import numpy
before = set(sys.modules)
import {0}
print(sys.modules["{0}"].__file__)
print(*sorted(set(sys.modules) - before))
"""


def added_modules(module, pythonpath=None):
    """(file of `module`, the modules importing it adds after numpy), in a fresh process."""
    env = dict(os.environ)
    if pythonpath is not None:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(pythonpath), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE.format(module)], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    path, added = out.splitlines()
    return path, added.split()


def network_modules(names):
    """The names in a network package, its C half (`_socket`, `_ssl`) included."""
    return [name for name in names if name.split(".")[0].lstrip("_") in NETWORK_PACKAGES]


@pytest.mark.parametrize("module", MODULES)
def test_import_loads_no_network_stack(module):
    path, added = added_modules(module, SRC)
    assert pathlib.Path(path).is_relative_to(SRC)
    assert module in added
    assert network_modules(added) == []


if __name__ == "__main__":
    for module in MODULES:
        path, added = added_modules(module)
        assert module in added and not network_modules(added), (path, network_modules(added))
        print(f"import {module} adds {len(added)} modules to numpy's, none of the "
              f"network stack, for {path}")
