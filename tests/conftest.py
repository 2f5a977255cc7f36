import numpy as np
import pytest

from qps import states


@pytest.fixture
def t_state():
    """The qubit T-state T H |0>, the standard single-qubit magic state."""
    return states.pure_state(np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2), 2)


@pytest.fixture
def qutrit_magic():
    """A qutrit state with a strictly negative Wigner entry."""
    v = np.array([1.0, 1.0, np.exp(2j * np.pi / 9)]) / np.sqrt(3)
    return states.pure_state(v, 3)


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that grows by one on every numpy.linalg.eigh / eigvalsh call."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(_real)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
