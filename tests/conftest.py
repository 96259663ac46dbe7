import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
# the CLI tests start child interpreters; they import the package under test
SRC = str(pathlib.Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from wallcross.gitfan import make_git, wall_crossing

CONFIG_DIR = pathlib.Path(__file__).parent.parent / "configs"


@pytest.fixture(scope="session")
def conifold():
    git = make_git([(1,), (1,), (-1,), (-1,)])
    return wall_crossing(git, (1,), (-1,))


@pytest.fixture(scope="session")
def resolution():
    git = make_git([(1,), (1,), (-2,)])
    return wall_crossing(git, (1,), (-1,))


@pytest.fixture(scope="session")
def gerbe_flop():
    git = make_git([(1, 0), (1, 2), (0, 2)])
    return wall_crossing(git, (2, 1), (1, 3))


@pytest.fixture(scope="session")
def all_examples(conifold, resolution, gerbe_flop):
    return {"conifold": conifold, "resolution": resolution, "gerbe_flop": gerbe_flop}


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR
