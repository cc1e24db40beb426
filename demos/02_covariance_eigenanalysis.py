"""Estimate the covariance operator from draws and inspect its spectrum.

Shows the 1/n moment estimator converging to E(Z^2) * diag(lambda), the
principal-angle metric between estimated and true eigenspaces, and the
trace tail that measures how much energy truncation discards.
"""

import numpy as np

from funquant import (
    EllipticalModel,
    ScaleMixture,
    estimate,
    principal_angles,
    sample,
    trace_tail,
)

lam = np.array([4.0, 1.0, 0.25, 0.0625])
model = EllipticalModel(mu=np.zeros(4), lam=lam, mixture=ScaleMixture.student_t(6.0))
scaling = model.mixture.second_moment()

print(f"shape spectrum      : {lam.tolist()}")
print(f"covariance spectrum : {(scaling * lam).round(4).tolist()}  (E(Z^2) = {scaling:.3f})")
print()
print(f"{'n':>8}  {'top eigval':>10}  {'rel err':>8}  {'angle to e1 (rad)':>18}")
for n in (500, 5_000, 50_000, 200_000):
    est = estimate(sample(model, n, seed=3))
    angle = principal_angles(est.eigvecs[:, :1], np.eye(4)[:, :1])[0]
    rel = abs(est.eigvals[0] / (scaling * lam[0]) - 1.0)
    print(f"{n:>8}  {est.eigvals[0]:>10.4f}  {rel:>8.4f}  {angle:>18.5f}")

print()
print("trace tails of the model spectrum (energy beyond each truncation):")
for k in range(1, lam.size + 2):
    print(f"  from index {k}: {trace_tail(model, k):.4f}")
