import collections
import pathlib
import sys

import numpy as np
import pytest

from gasbox.thermo import GasParams


@pytest.fixture
def gas():
    return GasParams(gamma=1.4, R=1.0, mu0=0.01, mu1=1e-4, kappa_r=1e-6)


@pytest.fixture
def inviscid_gas():
    return GasParams(gamma=1.4, R=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_NUMPY_DIR = str(pathlib.Path(np.__file__).parent)


class UfuncCounter(np.ndarray):
    """Test-only array that counts every ufunc call it takes part in.

    ``tally`` maps the name of the calling function (the first frame
    outside numpy, so ``arr.min()`` counts where it is written) to
    ``[calls, elements]``; the elements of a call are the size of its
    largest operand.  Results are ``UfuncCounter`` arrays again, so the
    arrays derived from a counted input are counted in turn.
    """

    tally = None

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, UfuncCounter) else x

        if out is not None:
            kwargs["out"] = tuple(plain(o) for o in out)
        if "where" in kwargs:
            kwargs["where"] = plain(kwargs["where"])
        result = getattr(ufunc, method)(*(plain(x) for x in inputs), **kwargs)
        if UfuncCounter.tally is not None:
            frame = sys._getframe(1)
            while frame.f_code.co_filename.startswith(_NUMPY_DIR):
                frame = frame.f_back
            entry = UfuncCounter.tally[frame.f_code.co_name]
            entry[0] += 1
            entry[1] += max(np.size(x) for x in (*inputs, *(out or ())))
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(UfuncCounter) if isinstance(result, np.ndarray) else result


@pytest.fixture
def count_ufuncs(monkeypatch):
    """``count_ufuncs(fn, *args, **kwargs)`` calls ``fn`` with every array
    argument viewed as a :class:`UfuncCounter` and returns its result and
    the tally of that call.  ``np.asarray`` keeps the subclass and ``np.empty`` and
    ``np.zeros`` make counting arrays while the fixture is active, so the
    arrays the program makes for itself are counted too."""
    asarray, empty, zeros = np.asarray, np.empty, np.zeros
    monkeypatch.setattr(np, "asarray", lambda a, dtype=None: np.asanyarray(a, dtype=dtype))
    monkeypatch.setattr(np, "empty", lambda *a, **k: empty(*a, **k).view(UfuncCounter))
    monkeypatch.setattr(np, "zeros", lambda *a, **k: zeros(*a, **k).view(UfuncCounter))

    def count(fn, *args, **kwargs):
        """``(result, tally)`` of ``fn(*args, **kwargs)``."""
        def counting(x):
            return asarray(x).view(UfuncCounter) if isinstance(x, np.ndarray) else x

        UfuncCounter.tally = collections.defaultdict(lambda: [0, 0])
        try:
            result = fn(*(counting(a) for a in args), **{k: counting(v) for k, v in kwargs.items()})
            return result, dict(UfuncCounter.tally)
        finally:
            UfuncCounter.tally = None

    return count
