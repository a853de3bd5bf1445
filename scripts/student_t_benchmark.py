#!/usr/bin/env python3
"""Student-t conditional benchmark.

Draws samples from a bivariate Student-t, fits an RTBM by CMA-ES maximum
likelihood, derives conditional models P(x2 | x1) for a few conditioning
values, and reports the MSE against the analytic conditional-t density
evaluated at the training points.
"""

import argparse
import os
import time

import numpy as np

from rtbm.density import condition_on, log_pdf_many
from rtbm.fit import FitConfig, fit_density
from rtbm.model import save_model
from rtbm.oracle import (StudentTParams, conditional_logpdf, sample_student,
                         student_conditional)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=5000)
    ap.add_argument("--nh", type=int, default=2)
    ap.add_argument("--restarts", type=int, default=5)
    ap.add_argument("--max-evals", type=int, default=6000)
    ap.add_argument("--data-seed", type=int, default=20260809)
    ap.add_argument("--fit-seed", type=int, default=7)
    ap.add_argument("--nu", type=float, default=6.0)
    ap.add_argument("--conditioning", default="-2,0,1",
                    help="comma-separated x1 values")
    ap.add_argument("--out-dir", default=None,
                    help="write model/data files here if given")
    args = ap.parse_args()

    tp = StudentTParams(mu=[0.0, 0.0], sigma=[[2.0, -1.0], [-1.0, 4.0]],
                        nu=args.nu)
    data = sample_student(tp, args.samples, seed=args.data_seed)
    print(f"drew {args.samples} samples (seed {args.data_seed})")

    config = FitConfig(n_h=args.nh, restarts=args.restarts,
                       max_evals=args.max_evals, seed=args.fit_seed)
    start = time.time()
    result = fit_density(data, config)
    print(f"fit: nll={result.nll:.2f} ({result.nll / args.samples:.4f}/point), "
          f"{result.evals} evaluations, {time.time() - start:.0f}s")
    print(f"T  = {np.round(result.params.t, 4).tolist()}")
    print(f"Q  = {np.round(result.params.q, 4).tolist()}")
    print(f"W  = {np.round(result.params.w, 4).tolist()}")
    print(f"bv = {np.round(result.params.bv, 4).tolist()}  "
          f"bh = {np.round(result.params.bh, 4).tolist()}")

    print(f"{'conditional':>16} {'MSE':>12}")
    for x1 in [float(v) for v in args.conditioning.split(",")]:
        ct = student_conditional(tp, [0], [x1])
        ref = np.exp(conditional_logpdf(ct, data[:, 1][:, None]))
        child, _ = condition_on(result.params, [0], [x1])
        cand = np.exp(log_pdf_many(child, data[:, 1][:, None]))
        mse = float(np.mean((ref - cand) ** 2))
        print(f"{f'P(x2|{x1:g})':>16} {mse:>12.4g}")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        np.savetxt(os.path.join(args.out_dir, "train.csv"), data,
                   delimiter=",", fmt="%.17g")
        save_model(result.params, os.path.join(args.out_dir, "fit.json"))
        print(f"wrote train.csv and fit.json to {args.out_dir}")


if __name__ == "__main__":
    main()
