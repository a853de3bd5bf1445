import numpy as np
import pytest

from rtbm import theta
from rtbm.model import RtbmParams
from rtbm.theta import Lattice

# Fitted t-distribution model (N_v=2, N_h=2), used throughout as the main
# hand-checkable fixture.
TFIT = dict(
    t=[[0.56, 0.18], [0.18, 0.30]],
    q=[[24.15, -0.44], [-0.44, 41.57]],
    w=[[-1.11, 1.02], [-0.66, 0.60]],
    bv=[0.0, 0.0],
    bh=[8.22, 17.40],
)

# Hand-constructed multimodal model with N_v=2, N_h=4.  With the last
# diagonal of Q at -5.54 (see CONSTRUCTED_2D_BAD_Q below) Q itself is
# indefinite, and merely flipping that sign leaves Q - W^T T^-1 W indefinite
# (min eigenvalue ~ -1.59); the valid fixture therefore also stiffens the
# sign-corrected Q by +4 I.
CONSTRUCTED_2D = dict(
    t=[[28.77, 0.0], [0.0, 6.3]],
    q=(np.array([[15.48, 8.82, -3.19, -3.67],
                 [8.82, 17.99, 8.94, -4.04],
                 [-3.19, 8.94, 15.74, 4.14],
                 [-3.67, -4.04, 4.14, 5.54]]) + 4.0 * np.eye(4)).tolist(),
    w=[[18.54, 3.02, -12.89, -5.45],
       [0.46, 1.01, -1.32, -5.54]],
    bv=[-1.76, -2.69],
    bh=[-0.31, 2.29, 1.65, -2.73],
)

# The indefinite Q variant; rejected by the validator.
CONSTRUCTED_2D_BAD_Q = [[15.48, 8.82, -3.19, -3.67],
                            [8.82, 17.99, 8.94, -4.04],
                            [-3.19, 8.94, 15.74, 4.14],
                            [-3.67, -4.04, 4.14, -5.54]]

# Hand-constructed three-dimensional model with a single hidden unit.
CONSTRUCTED_3D = dict(
    t=[[16.02, -6.52, -6.76],
       [-6.52, 29.04, -2.56],
       [-6.76, -2.56, 42.16]],
    w=[[-15.76], [2.29], [2.09]],
    q=[[19.18]],
    bv=[1.08, -0.67, 4.86],
    bh=[3.17],
)


@pytest.fixture(autouse=True)
def no_prepared_theta_kernels():
    """Every test starts with an empty theta kernel cache, whatever ran before."""
    theta._KERNELS.clear()


@pytest.fixture
def tfit_params():
    return RtbmParams(**TFIT)


@pytest.fixture
def constructed_2d_params():
    return RtbmParams(**CONSTRUCTED_2D)


@pytest.fixture
def constructed_3d_params():
    return RtbmParams(**CONSTRUCTED_3D)


def random_spd(rng, n, eig_lo=0.5, eig_hi=50.0):
    """Random symmetric matrix with eigenvalues uniform in [eig_lo, eig_hi]."""
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = rng.uniform(eig_lo, eig_hi, n)
    a = (basis * eigs) @ basis.T
    return 0.5 * (a + a.T)


def random_valid_params(rng, n_v, n_h, lattice=Lattice.FULL):
    """Random model passing all three PD checks, with healthy margins."""
    t = random_spd(rng, n_v, 0.5, 4.0)
    q = random_spd(rng, n_h, 6.0, 40.0)
    w = rng.standard_normal((n_v, n_h))
    while np.linalg.eigvalsh(q - w.T @ np.linalg.solve(t, w))[0] < 1.0:
        w = 0.5 * w
    return RtbmParams(t=t, q=q, w=w, bv=rng.standard_normal(n_v),
                      bh=rng.standard_normal(n_h), lattice=lattice)
