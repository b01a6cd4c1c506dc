import os
import subprocess
import sys
import types
from pathlib import Path

import spectree


def test_all_names_exactly_the_public_names_of_the_package():
    public = {name for name, value in vars(spectree).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(spectree.__all__)) == len(spectree.__all__)
    assert set(spectree.__all__) == public
    for name in spectree.__all__:
        assert getattr(spectree, name) is not None


# each of these costs milliseconds to import, which every command would pay at start-up
HEAVY_MODULES = ("fractions", "decimal", "scipy", "numpy.random", "numpy.polynomial")


def test_the_cli_import_leaves_the_heavy_modules_unloaded():
    code = ("import sys, spectree.cli; "
            f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(spectree.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.split() == []
