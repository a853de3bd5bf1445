"""Models queried by the infer workload.

The values are the three hand-checkable models of the test suite: a
Student-t fit (n_v=2, n_h=2), a multimodal constructed model (n_v=2,
n_h=4) and a three-dimensional constructed model (n_v=3, n_h=1). They are
copied here so that the benchmark depends on no file outside its own
directory except the package under test.
"""

TFIT = dict(
    t=[[0.56, 0.18], [0.18, 0.30]],
    q=[[24.15, -0.44], [-0.44, 41.57]],
    w=[[-1.11, 1.02], [-0.66, 0.60]],
    bv=[0.0, 0.0],
    bh=[8.22, 17.40],
)

# Q is the sign-corrected constructed matrix plus 4 I, as in the tests;
# 19.740000000000002 is the float that 15.74 + 4.0 gives there.
CONSTRUCTED_2D = dict(
    t=[[28.77, 0.0], [0.0, 6.3]],
    q=[[19.48, 8.82, -3.19, -3.67],
       [8.82, 21.99, 8.94, -4.04],
       [-3.19, 8.94, 19.740000000000002, 4.14],
       [-3.67, -4.04, 4.14, 9.54]],
    w=[[18.54, 3.02, -12.89, -5.45],
       [0.46, 1.01, -1.32, -5.54]],
    bv=[-1.76, -2.69],
    bh=[-0.31, 2.29, 1.65, -2.73],
)

CONSTRUCTED_3D = dict(
    t=[[16.02, -6.52, -6.76],
       [-6.52, 29.04, -2.56],
       [-6.76, -2.56, 42.16]],
    q=[[19.18]],
    w=[[-15.76], [2.29], [2.09]],
    bv=[1.08, -0.67, 4.86],
    bh=[3.17],
)

MODELS = (("TFIT", TFIT), ("CONSTRUCTED_2D", CONSTRUCTED_2D),
          ("CONSTRUCTED_3D", CONSTRUCTED_3D))
