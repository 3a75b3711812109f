"""Shared test settings: every property test replays the same draws, and the
child interpreters some tests start import footplan from this checkout."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("footplan", deadline=None, derandomize=True, database=None)
settings.load_profile("footplan")

# pyproject's `pythonpath` reaches only this interpreter; a child finds src/
# through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
