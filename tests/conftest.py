import random

import pytest

from isonorm import census

from _helpers import WORDS


def pytest_addoption(parser):
    parser.addoption(
        "--seed", type=int, default=20260824,
        help="seed for randomized property-test batches")


@pytest.fixture
def seed(request):
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed):
    return random.Random(seed)


@pytest.fixture(scope="session")
def census_builds():
    """The maps and walks of the four golden census words."""
    return [census.word_to_map(w) for w in WORDS]


@pytest.fixture(scope="session")
def census_reps():
    """The census's class representatives."""
    return census.census()
