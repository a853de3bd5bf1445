#!/usr/bin/env python3
"""SHA-256 digests of the package's outputs on a fixed battery of inputs.

Two checkouts that print the same digests give the same outputs, bit for
bit, on this battery:

* ``log_pdf_many``, the child of ``condition_on`` (its ``log_pdf_many``) and
  ``log_marginal`` on the three test fixtures of ``tests/conftest.py``, on
  both lattices;
* ``log_pdf_many`` on random models with 8 and 12 visible and 2 hidden
  units (``random_valid_params``), on both lattices;
* ``sample_visible(params, 20000, seed=5)`` on each fixture;
* ``log_theta_many`` on 200-row and 1-row batches of random SPD matrices at
  h = 1..4, on both lattices and at three scales;
* ``log_theta_many`` on 200-row and 1-row batches of one random SPD matrix
  at h = 3 and one at h = 4 whose full-lattice sums take the separable
  tables (a 7 x 49 and a 7 x 255 table).

Each line reads ``<item> <sha256>``.  To compare two checkouts value by
value where their digests differ, import :func:`battery` from this file
in each.  The exp and log of different CPUs and numpy builds can differ in
the last bit, so compare digests only between runs on one machine.

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
from rtbm.model import RtbmParams  # noqa: E402
from rtbm.sampling import sample_visible  # noqa: E402
from rtbm.theta import Lattice, log_theta_many  # noqa: E402

FIXTURES = {"tfit": TFIT, "constructed_2d": CONSTRUCTED_2D, "constructed_3d": CONSTRUCTED_3D}
# eigenvalue ranges of the random theta matrices: dual, mixed and primal sums
SCALES = {"small": (0.05, 2.0), "mid": (0.5, 20.0), "stiff": (5.0, 200.0)}
# eigenvalue range of the h = 3 and h = 4 matrices summed in the separable form
SEPARABLE_SCALE = (5.0, 20.0)


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
            values = np.linspace(-3.0, 3.0, 30)
            yield (f"log_marginal/{name}/{lattice.value}",
                   np.array([log_marginal(params, params.n_v - 1, [d]) for d in values]))
    for n_v in (8, 12):
        for lattice in Lattice:
            rng = np.random.default_rng(n_v)
            params = random_valid_params(rng, n_v, 2, lattice)
            rows = rng.normal(0.0, 1.0, (300, n_v))
            yield f"log_pdf_many/wide_nv{n_v}/{lattice.value}", log_pdf_many(params, rows)
    for name, fixture in FIXTURES.items():
        yield f"sample_visible/{name}", sample_visible(RtbmParams(**fixture), 20000, seed=5)
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


def main():
    for item, values in battery():
        values = np.ascontiguousarray(values, dtype=float)
        print(item, hashlib.sha256(values.tobytes()).hexdigest())


if __name__ == "__main__":
    main()
