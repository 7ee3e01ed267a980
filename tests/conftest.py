# the package before numpy: importing it sets the BLAS to one thread per
# process, which OpenBLAS reads only when numpy loads it. With numpy first,
# every pool worker a test forks runs a multi-threaded BLAS, and the workers'
# threads compete for the same cores
import disjoint_link  # noqa: F401  # isort: skip
import multiprocessing

import numpy as np
import pytest
from hypothesis import settings

from disjoint_link.data import Dataset, FeatureSchema

# a failing property test prints the blob that replays its example with
# @reproduce_failure; example counts and deadlines stay each test's own
settings.register_profile("disjoint-link", print_blob=True)
settings.load_profile("disjoint-link")


def numeric_dataset(X, y, ds_id="test"):
    X = np.asarray(X, dtype=float)
    schema = tuple(FeatureSchema(f"f{j}", "numeric") for j in range(X.shape[1]))
    return Dataset(schema, X, np.asarray(y), ds_id)


@pytest.fixture
def make_dataset():
    return numeric_dataset


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a pool worker running."""
    yield
    assert multiprocessing.active_children() == []
