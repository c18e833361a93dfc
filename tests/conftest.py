import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from loowit.linalg import DimPair
from loowit.states import make_state

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=list(HealthCheck),
)
settings.load_profile("suite")


def random_complex(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_state(rng: np.random.Generator, d: int, label: str = "random"):
    return make_state(random_density(rng, d * d), DimPair.square(d), label)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2.0


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250808)
