import warnings

import numpy as np
import pytest

from hypergroups import catalog

# Hypothesis imports libcst, where installed, to report a failing example; libcst's
# import raises a DeprecationWarning (mypy_extensions.TypedDict) that ``-W error``
# turns into an INTERNALERROR ending the session.  Importing it here first, with that
# warning ignored, keeps failures reported under ``-W error``.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

SEED = 0xC0FFEE


@pytest.fixture(scope="session")
def pentagon():
    return catalog.pentagon_scheme()


@pytest.fixture(scope="session")
def k4():
    return catalog.k4_scheme()


@pytest.fixture(scope="session")
def petersen():
    return catalog.petersen_scheme()


@pytest.fixture(scope="session")
def z4():
    return catalog.cyclic_scheme(4)


@pytest.fixture(scope="session")
def z5():
    return catalog.cyclic_scheme(5)


@pytest.fixture(scope="session")
def s3_mod_h():
    return catalog.s3_mod_transposition()


@pytest.fixture(scope="session")
def s4_mod_s3():
    return catalog.s4_mod_s3()


@pytest.fixture(scope="session")
def s3_regular():
    return catalog.s3_regular()


def commutative_fixture_schemes():
    """The commutative schemes used across harmonic-analysis tests."""
    return {
        "z4": catalog.cyclic_scheme(4),
        "z5": catalog.cyclic_scheme(5),
        "pentagon": catalog.pentagon_scheme(),
        "k4": catalog.k4_scheme(),
        "petersen": catalog.petersen_scheme(),
        "s3_mod_h": catalog.s3_mod_transposition(),
        "s4_mod_s3": catalog.s4_mod_s3(),
    }


@pytest.fixture(scope="session")
def commutative_schemes():
    return commutative_fixture_schemes()


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)
