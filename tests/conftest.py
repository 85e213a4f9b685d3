import os
from pathlib import Path

import numpy as np
import pytest

import povmlab
from povmlab.measurement import Povm, PureState


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C kernel into a fresh cache: the suite writes nothing outside tmp,
    and its first ``Propagator`` compiles, as on a new machine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


def probe_env(cache_home) -> dict:
    """This environment for a fresh interpreter that imports this povmlab and
    builds its kernel into ``cache_home``."""
    src = str(Path(povmlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    pythonpath = src if not path else src + os.pathsep + path
    return {**os.environ, "PYTHONPATH": pythonpath, "XDG_CACHE_HOME": str(cache_home)}


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_effect(rng, dim):
    """A random operator with spectrum inside [0, 1]."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = z.conj().T @ z
    return h / (np.linalg.eigvalsh(h).max() + rng.uniform(0.0, 1.0))


def random_povm(rng, dim, n_outcomes):
    """A normalized observable: random positives whitened to sum to I."""
    raws = []
    for _ in range(n_outcomes):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raws.append(z.conj().T @ z)
    total = sum(raws)
    w, v = np.linalg.eigh(total)
    root_inv = v @ np.diag(w**-0.5) @ v.conj().T
    effects = [root_inv @ r @ root_inv for r in raws]
    return Povm(tuple(range(1, n_outcomes + 1)), effects)


def random_commuting_povm_pair(rng, dim, n_a, n_b):
    """Two observables diagonal in one random basis, each summing to I."""
    basis = random_unitary(rng, dim)

    def build(n):
        weights = rng.uniform(size=(n, dim))
        weights /= weights.sum(axis=0)
        effects = [basis @ np.diag(weights[k]) @ basis.conj().T for k in range(n)]
        return Povm(tuple(range(1, n + 1)), effects)

    return build(n_a), build(n_b)
