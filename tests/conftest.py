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


def same_bits(a, b) -> bool:
    """Same shape, dtype and bytes: equal values, each zero's sign and each NaN payload included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def near_float_limit_rho() -> np.ndarray:
    """A finite 9 x 9 matrix of trace 1 with off-diagonal entries 1.5e308 and a 1e280 Hermiticity defect.

    The defect is within tolerance, but H + H^dagger overflows.
    """
    up = np.triu(np.ones((9, 9)), 1)
    return 1.5e308 * (up + up.T) + np.eye(9) / 9.0 + 1e280j * up


def overflowing_entry_rho() -> np.ndarray:
    """A finite Hermitian 4 x 4 matrix of trace 1 with an off-diagonal entry 1.5e308 (1 + 1j).

    Each part is finite, but |z| of that entry passes the float limit.
    """
    h = np.eye(4, dtype=complex) / 4.0
    h[0, 1] = 1.5e308 * (1 + 1j)
    h[1, 0] = np.conj(h[0, 1])
    return h


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
