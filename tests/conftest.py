import os
from fractions import Fraction

import pytest
from hypothesis import settings

from latrank import make_field, rationals

# Under CI, property tests draw their examples from a fixed seed and print the
# blob that replays a failing example, so a red CI run reproduces locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def QQ():
    return rationals()


@pytest.fixture(scope="session")
def Qi():
    return make_field([1, 0, 1])


@pytest.fixture(scope="session")
def Qs5():
    return make_field([-5, 0, 1],
                      integral_basis=[[1, 0], [Fraction(1, 2), Fraction(1, 2)]])


@pytest.fixture(scope="session")
def Qzeta9p():
    # the maximal real subfield of Q(zeta_9); Z[theta] is its ring of integers
    return make_field([1, -3, 0, 1])


@pytest.fixture(scope="session")
def Qzeta8():
    return make_field([1, 0, 0, 0, 1])
