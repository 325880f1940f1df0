"""The tests' child processes (the CLI, the `python -O` checks) import
covertsim from this checkout's `src/`, as pytest itself does through the
`pythonpath` setting in pyproject.toml."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
