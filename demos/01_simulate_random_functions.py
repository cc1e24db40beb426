"""Simulate elliptical random functions and render them as curves.

Draws a handful of paths from a gaussian and a heavy-tailed t5 model with
the same shape spectrum, prints their empirical moments, and writes each
path as a t,value CSV rendered in the Fourier basis.  With matplotlib
installed a comparison figure lands next to the CSVs.
"""

import numpy as np

from funquant import (
    EllipticalModel,
    ScaleMixture,
    covariance_operator,
    make_basis,
    sample,
    write_curve_csv,
)

OUT = "demo_output/simulate"

d = 5
lam = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
basis = make_basis(family="fourier-on-[0,1]", dimension=d, grid=np.linspace(0, 1, 201))

for name, mixture in [("gaussian", ScaleMixture.gaussian()), ("t5", ScaleMixture.student_t(5.0))]:
    model = EllipticalModel(mu=np.zeros(d), lam=lam, mixture=mixture)
    draws = sample(model, 2000, seed=1)

    print(f"--- {name} model, spectrum {lam.tolist()}")
    print(f"    E(Z^2) = {mixture.second_moment():.4f}")
    print(f"    trace of covariance operator = {np.trace(covariance_operator(model)):.4f}")
    print(f"    empirical trace at n=2000    = {np.trace(np.cov(draws, rowvar=False)):.4f}")

    for i in range(4):
        path = f"{OUT}/{name}_path_{i + 1}.csv"
        write_curve_csv(path, basis, draws[i])
    print(f"    wrote 4 sample paths under {OUT}/")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    t = np.asarray(basis.grid)
    for ax, (name, mixture) in zip(
        axes, [("gaussian", ScaleMixture.gaussian()), ("t5", ScaleMixture.student_t(5.0))]
    ):
        model = EllipticalModel(mu=np.zeros(d), lam=lam, mixture=mixture)
        draws = sample(model, 12, seed=2)
        for row in draws:
            ax.plot(t, basis.to_curve(row), lw=0.8)
        ax.set_title(f"{name} paths")
        ax.set_xlabel("t")
    fig.tight_layout()
    fig.savefig(f"{OUT}/paths.png", dpi=120)
    print(f"wrote {OUT}/paths.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
