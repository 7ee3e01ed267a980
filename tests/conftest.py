import numpy as np
import pytest

from disjoint_link.data import Dataset, FeatureSchema


def numeric_dataset(X, y, ds_id="test"):
    X = np.asarray(X, dtype=float)
    schema = tuple(FeatureSchema(f"f{j}", "numeric") for j in range(X.shape[1]))
    return Dataset(schema, X, np.asarray(y), ds_id)


@pytest.fixture
def make_dataset():
    return numeric_dataset
