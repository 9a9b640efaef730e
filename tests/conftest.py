import pytest

from refdoc import pipeline
from refdoc.classifiers import ALGORITHMS, ModelConfig
from refdoc.synthetic import generate_corpus


@pytest.fixture(scope="session")
def synthetic_dataset():
    """The bundled 600-message corpus (seed 0, 100 per class)."""
    return generate_corpus(seed=0, per_class=100)


@pytest.fixture(scope="session")
def small_dataset():
    return generate_corpus(seed=1, per_class=25)


@pytest.fixture(scope="session")
def none_dataset():
    return generate_corpus(seed=2, per_class=60, include_none=True)


@pytest.fixture(scope="session")
def nb_model(synthetic_dataset):
    return pipeline.fit(synthetic_dataset, ModelConfig(algorithm="nb"))


@pytest.fixture(scope="session")
def gbt_model(synthetic_dataset):
    return pipeline.fit(synthetic_dataset, ModelConfig(algorithm="gbt"))


@pytest.fixture(scope="session")
def none_model(none_dataset):
    return pipeline.fit(none_dataset,
                        ModelConfig(algorithm="nb", include_none=True))


@pytest.fixture(scope="session")
def bundled_models(request, synthetic_dataset):
    """Every algorithm at its defaults on the bundled corpus; the session
    nb and gbt models are reused."""
    return {algo: request.getfixturevalue(f"{algo}_model")
            if algo in ("nb", "gbt")
            else pipeline.fit(synthetic_dataset, ModelConfig(algorithm=algo))
            for algo in ALGORITHMS}
