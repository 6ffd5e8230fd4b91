import os

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


@pytest.fixture
def failing_workers(monkeypatch):
    """Make ``data._rows_text`` and ``data._raw_features`` raise in any
    process but this one, so that every worker ``save_csv`` or
    ``read_chunks`` forks fails."""
    here = os.getpid()

    def fail_elsewhere(name):
        real = getattr(data, name)

        def wrapped(*args):
            if os.getpid() != here:
                raise RuntimeError("worker fails")
            return real(*args)

        monkeypatch.setattr(data, name, wrapped)

    fail_elsewhere("_rows_text")
    fail_elsewhere("_raw_features")
