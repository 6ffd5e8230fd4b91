import numpy as np
import pytest

from docnids import data, svdd


@pytest.fixture(scope="session")
def fixture_ds():
    return data.standard_fixture()


@pytest.fixture(scope="session")
def fixture_scaled(fixture_ds):
    benign = fixture_ds.rows[fixture_ds.labels == 0]
    scaler = data.fit_scaler(benign)
    return data.apply_scaler(scaler, benign), scaler


@pytest.fixture(scope="session")
def trained_svdd(fixture_scaled):
    scaled, _ = fixture_scaled
    (model,) = svdd.train(svdd.SvddConfig(seed=0), scaled[None])
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
