import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from loowit.linalg import DimPair
from loowit.states import (
    FamilyParams,
    family_rho,
    make_state,
    max_entangled,
    random_product_state,
    random_separable_state,
)

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


def sample_states(d: int, seed: int) -> list:
    """Seeded product and separable samples, the maximally entangled state and family states."""
    rng = np.random.default_rng(seed)
    dims = DimPair.square(d)
    out = [max_entangled(d)]
    for mode in ("pure", "mixed"):
        out.append(random_product_state(dims, seed=int(rng.integers(2**31)), mode=mode))
        out.append(
            random_separable_state(dims, k=int(rng.integers(1, 5)), seed=int(rng.integers(2**31)), mode=mode)
        )
    for _ in range(3):
        out.append(family_rho(FamilyParams(d, tuple(rng.dirichlet(np.ones(d))))))
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250808)
