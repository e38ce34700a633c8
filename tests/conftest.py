import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from cyclefactors.fractional import maxmin_lp, maxmin_weights


def inequality_form_z(A):
    """z* of max z s.t. A w = 1, w >= z, with one row z - w_j <= 0 per column.

    The formulation ``maxmin_lp`` replaces, kept here only as an oracle;
    None when the equality rows have no nonnegative solution.
    """
    A = sparse.csr_matrix(A)
    rows, cols = A.shape
    c = np.zeros(cols + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=sparse.hstack([-sparse.identity(cols), np.ones((cols, 1))]),
        b_ub=np.zeros(cols),
        A_eq=sparse.hstack([A, sparse.csr_matrix((rows, 1))]),
        b_eq=np.ones(rows),
        bounds=(0, None),
        method="highs",
    )
    return res.x[-1] if res.success else None


@pytest.fixture
def check_against_oracle():
    """Solve A through the helper and compare it with the inequality form."""

    def check(A):
        A = sparse.csr_matrix(A)
        c, kwargs = maxmin_lp(A)
        assert "A_ub" not in kwargs
        res = linprog(c, **kwargs)
        want = inequality_form_z(A)
        assert res.success == (want is not None)
        if want is None:
            return None
        z = res.x[-1]
        assert abs(z - want) <= 1e-9
        w = maxmin_weights(A, res)
        assert w.min() >= z - 1e-12
        assert np.abs(A @ w - 1).max() <= 1e-12
        return z

    return check
