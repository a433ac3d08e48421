"""Tests of ``tools/mixing.py``'s command line, loaded by path: the tool is a
script beside the package, not a module of it."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mixing.py"


@pytest.fixture(scope="module")
def mixing():
    spec = importlib.util.spec_from_file_location("mixing_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text, seeds", [
    ("5:1:-1", [5, 4, 3, 2, 1]),  # a negative step includes its stop, as a positive one does
    ("1009:4009:1000", [1009, 2009, 3009, 4009]),
    ("7,1:3", [7, 1, 2, 3]),
])
def test_seed_ranges_include_their_stop(mixing, text, seeds):
    assert mixing.seed_list(text) == seeds


@pytest.mark.parametrize("seeds", ["-3", "x", "5:1", "1:5:0"])
def test_bad_seeds_are_usage_errors(mixing, seeds, capsys):
    with pytest.raises(SystemExit) as exit_:
        mixing.main(["--kinds", "exp3", "--seeds", seeds])
    assert exit_.value.code == 2
    assert "--seeds" in capsys.readouterr().err

