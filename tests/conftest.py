import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphnorm import build_graph, erdos_renyi

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, print_blob=True
)
hypothesis.settings.register_profile("deep", deadline=None, max_examples=2000)
hypothesis.settings.load_profile("default")


@pytest.fixture
def k2_uniform():
    return build_graph(2, [(0, 1)], [1.0, 1.0])


@pytest.fixture
def k2_heavy():
    return build_graph(2, [(0, 1)], [4.0, 1.0])


@pytest.fixture
def p3_uniform():
    return build_graph(3, [(0, 1), (1, 2)], [1.0, 1.0, 1.0])


@pytest.fixture
def p3_weighted():
    return build_graph(3, [(0, 1), (1, 2)], [1.0, 3.0, 1.0])


@pytest.fixture
def star_k13():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)], [1.0] * 4)


def random_corpus(count, n_low, n_high, seed0, p=0.3):
    """Deterministic corpus of connected-ish random instances."""
    rng = np.random.default_rng(seed0)
    graphs = []
    for k in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        graphs.append(erdos_renyi(n, p, [seed0, k]))
    return graphs
