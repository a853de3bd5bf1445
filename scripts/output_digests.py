#!/usr/bin/env python3
"""SHA-256 digests of the package's outputs on a fixed battery of inputs.

Two checkouts that print the same digests give the same outputs, bit for
bit, on this battery:

* ``log_pdf_many``, the child of ``condition_on`` (its ``log_pdf_many``) and
  ``log_marginal`` on the three test fixtures of ``tests/conftest.py``, on
  both lattices;
* ``log_pdf_many`` on random models with 8 and 12 visible and 2 hidden
  units (``random_valid_params``), on both lattices;
* ``sample_visible(params, 20000, seed=5)`` on each fixture, and at
  ``TAIL_COUNTS`` draws, whose last block of 2^14 draws is short;
* ``log_theta_many`` on 200-row and 1-row batches of random SPD matrices at
  h = 1..4, on both lattices and at three scales;
* ``log_theta_many`` on 200-row and 1-row batches of one random SPD matrix
  at h = 3 and one at h = 4 whose full-lattice sums take the separable
  tables (a 7 x 49 and a 7 x 255 table);
* the kept child of a model's last conditioning request, on fresh models
  of each fixture and lattice: ``log_marginal`` right after
  ``condition_on`` of the same request, and a repeated ``condition_on``
  whose child has drawn before (its ``log_pdf_many`` and
  ``sample_visible``).  Each such item has a twin computed on a fresh
  child (``TWINS``);
* the child of a second value on a free set already conditioned on (its
  ``log_pdf_many`` and ``sample_visible``), and CONSTRUCTED_3D conditioned
  on ``[2, 1]`` after ``[1, 2]``, whose children share the parent's plan
  of their free set (``density._plan``).  Each has a twin computed on a
  fresh parent (``TWINS``); the second is new with it
  (``condition_on_pair``);
* seeded fits (``FIT_ROWS`` Student-t rows, one restart of ``FIT_EVALS``
  evaluations) at n_h = 1, 2 and 3 on both lattices: each item is the
  fit's trace of (evaluations, best NLL) pairs, then its model's T, Q, W,
  bv and bh and its NLL.  Every candidate of such a fit brings fresh
  theta matrices, so these items check the kernels a fit prepares, which
  the random SPD matrices above do not; a fit scores its candidates on
  one process per CPU, and its items do not depend on how many.

Each line reads ``<item> <sha256>``.  To compare two checkouts value by
value where their digests differ, import :func:`battery` from this file
in each.  The exp and log of different CPUs and numpy builds can differ in
the last bit, so compare digests only between runs on one machine.  A kept
child must give what a fresh one gives on any machine, so the script exits
with status 1, naming the item, when an item's digest differs from its
twin's.

Run from the repository root:

    PYTHONPATH=src python scripts/output_digests.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import (CONSTRUCTED_2D, CONSTRUCTED_3D, TFIT, random_spd,  # noqa: E402
                      random_valid_params)

from rtbm.density import condition_on, log_marginal, log_pdf_many  # noqa: E402
from rtbm.fit import FitConfig, fit_density  # noqa: E402
from rtbm.model import RtbmParams  # noqa: E402
from rtbm.oracle import StudentTParams, sample_student  # noqa: E402
from rtbm.sampling import sample_visible  # noqa: E402
from rtbm.theta import Lattice, log_theta_many  # noqa: E402

FIXTURES = {"tfit": TFIT, "constructed_2d": CONSTRUCTED_2D, "constructed_3d": CONSTRUCTED_3D}
# eigenvalue ranges of the random theta matrices: dual, mixed and primal sums
SCALES = {"small": (0.05, 2.0), "mid": (0.5, 20.0), "stiff": (5.0, 200.0)}
# eigenvalue range of the h = 3 and h = 4 matrices summed in the separable form
SEPARABLE_SCALE = (5.0, 20.0)
# draw counts one and five past a whole number of blocks of 2^14 draws, the
# block size of sample_visible; fixed here so that the battery is the same
# in every checkout
TAIL_COUNTS = ((1 << 14) + 1, 3 * (1 << 14) + 5)
# the seeded fits: rows of the README's Student-t, and one restart's budget
FIT_ROWS, FIT_EVALS = 300, 150
FIT_STUDENT = StudentTParams(mu=[0.0, 0.0], sigma=[[2.0, -1.0], [-1.0, 4.0]], nu=6.0)
# items of a kept child -> their twins of a fresh child, by the item's first part
TWINS = {"log_marginal_after_condition_on": "log_marginal",
         "condition_on_repeated": "condition_on",
         "sample_visible_child_repeated": "sample_visible_child",
         "condition_on_second_value": "condition_on",
         "sample_visible_child_second_value": "sample_visible_child",
         "condition_on_pair_after_swap": "condition_on_pair"}


def battery():
    """Yield (item, array) for every item of the battery, in a fixed order."""
    for name, fixture in FIXTURES.items():
        for lattice in Lattice:
            params = RtbmParams(**fixture, lattice=lattice)
            rows = np.random.default_rng(2026).normal(0.0, 2.0, (300, params.n_v))
            yield f"log_pdf_many/{name}/{lattice.value}", log_pdf_many(params, rows)
            child, _ = condition_on(params, [params.n_v - 1], [0.3])
            yield (f"condition_on/{name}/{lattice.value}",
                   log_pdf_many(child, rows[:, :-1]))
            yield (f"sample_visible_child/{name}/{lattice.value}",
                   sample_visible(child, 20000, seed=5))
            values = np.linspace(-3.0, 3.0, 30)
            yield (f"log_marginal/{name}/{lattice.value}",
                   np.array([log_marginal(params, params.n_v - 1, [d]) for d in values]))
            yield from _kept_children(name, fixture, lattice, rows, values)
            yield from _planned_children(name, fixture, lattice, rows)
    for n_v in (8, 12):
        for lattice in Lattice:
            rng = np.random.default_rng(n_v)
            params = random_valid_params(rng, n_v, 2, lattice)
            rows = rng.normal(0.0, 1.0, (300, n_v))
            yield f"log_pdf_many/wide_nv{n_v}/{lattice.value}", log_pdf_many(params, rows)
    for name, fixture in FIXTURES.items():
        yield f"sample_visible/{name}", sample_visible(RtbmParams(**fixture), 20000, seed=5)
    for name, fixture in FIXTURES.items():
        for count in TAIL_COUNTS:
            yield (f"sample_visible/{name}/{count}",
                   sample_visible(RtbmParams(**fixture), count, seed=5))
    for h in range(1, 5):
        for k, (scale, (lo, hi)) in enumerate(SCALES.items()):
            rng = np.random.default_rng([h, k])
            omega = random_spd(rng, h, lo, hi)
            zs = rng.uniform(-6.0, 6.0, (200, h)) @ omega + rng.uniform(-1.0, 1.0, (200, h))
            for lattice in Lattice:
                batch = log_theta_many(zs, omega, lattice)
                single = log_theta_many(zs[:1], omega, lattice)
                yield f"log_theta_many/h{h}/{scale}/{lattice.value}/200", batch
                yield f"log_theta_many/h{h}/{scale}/{lattice.value}/1", single
    for h in (3, 4):
        rng = np.random.default_rng([h, 16])
        omega = random_spd(rng, h, *SEPARABLE_SCALE)
        zs = rng.uniform(-6.0, 6.0, (200, h)) @ omega + rng.uniform(-1.0, 1.0, (200, h))
        yield f"log_theta_many/separable_h{h}/200", log_theta_many(zs, omega)
        yield f"log_theta_many/separable_h{h}/1", log_theta_many(zs[:1], omega)
    data = sample_student(FIT_STUDENT, FIT_ROWS, seed=1)
    for n_h in (1, 2, 3):
        for lattice in Lattice:
            fitted = fit_density(data, FitConfig(n_h=n_h, restarts=1, max_evals=FIT_EVALS,
                                                 seed=11, lattice=lattice))
            p = fitted.params
            yield (f"fit_density/nh{n_h}/{lattice.value}",
                   np.concatenate([np.ravel(fitted.trace), p.t.ravel(), p.q.ravel(),
                                   p.w.ravel(), p.bv, p.bh, [fitted.nll]]))


def _kept_children(name, fixture, lattice, rows, values):
    """The items of ``TWINS`` for one fixture and lattice, each on a fresh model."""
    params = RtbmParams(**fixture, lattice=lattice)
    m = params.n_v - 1
    marginals = []
    for d in values:
        condition_on(params, [m], [d])
        marginals.append(log_marginal(params, m, [d]))
    yield f"log_marginal_after_condition_on/{name}/{lattice.value}", np.array(marginals)
    params = RtbmParams(**fixture, lattice=lattice)
    sample_visible(condition_on(params, [m], [0.3])[0], 1000, seed=6)
    child, _ = condition_on(params, [m], [0.3])
    yield f"condition_on_repeated/{name}/{lattice.value}", log_pdf_many(child, rows[:, :-1])
    yield (f"sample_visible_child_repeated/{name}/{lattice.value}",
           sample_visible(child, 20000, seed=5))


def _planned_children(name, fixture, lattice, rows):
    """The planned items of ``TWINS`` for one fixture and lattice, each on a
    fresh model, with the fresh twin of the swapped pair on CONSTRUCTED_3D."""
    params = RtbmParams(**fixture, lattice=lattice)
    m = params.n_v - 1
    condition_on(params, [m], [-1.1])
    child, _ = condition_on(params, [m], [0.3])
    yield f"condition_on_second_value/{name}/{lattice.value}", log_pdf_many(child, rows[:, :-1])
    yield (f"sample_visible_child_second_value/{name}/{lattice.value}",
           sample_visible(child, 20000, seed=5))
    if name == "constructed_3d":
        child, _ = condition_on(RtbmParams(**fixture, lattice=lattice), [2, 1], [-0.4, 0.3])
        yield f"condition_on_pair/{name}/{lattice.value}", log_pdf_many(child, rows[:, :1])
        params = RtbmParams(**fixture, lattice=lattice)
        condition_on(params, [1, 2], [0.3, -0.4])
        child, _ = condition_on(params, [2, 1], [-0.4, 0.3])
        yield (f"condition_on_pair_after_swap/{name}/{lattice.value}",
               log_pdf_many(child, rows[:, :1]))


def main():
    digests = {}
    for item, values in battery():
        values = np.ascontiguousarray(values, dtype=float)
        digests[item] = hashlib.sha256(values.tobytes()).hexdigest()
        print(item, digests[item])
    differ = []
    for item, digest in digests.items():
        kind, _, rest = item.partition("/")
        if kind in TWINS and digest != digests[f"{TWINS[kind]}/{rest}"]:
            differ.append(item)
    for item in differ:
        print(f"{item} differs from its twin of a fresh child", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
