import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import MODULES  # noqa: E402


@pytest.fixture(scope="session")
def nc():
    return SimpleNamespace(**{m: importlib.import_module(f"nilcohom.{m}") for m in MODULES})
