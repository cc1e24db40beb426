"""The quantize-1d workload: a library sweep of the exact 1-d quantizer.

    python3 bench/sweep_1d.py --config sweep.json --out DIR

The config lists scale-mixture laws (as ``model.mixture`` objects) and the
k values to sweep.  For each law the script solves the k-point quantizer of
its standardized law with ``univariate_principal_points``, then adds
``closed_form_two_points`` and ``g_constant`` on the reference models, and
writes everything to ``DIR/sweep.json`` through funquant's own JSON writer.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from funquant import ScaleMixture, closed_form_two_points, g_constant, reference_models, univariate_principal_points
from funquant._io import write_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    cfg = json.loads(Path(args.config).read_text())

    laws = []
    for spec in cfg["laws"]:
        law = ScaleMixture.from_dict(spec).standardized_law()
        points = {str(k): univariate_principal_points(law, k).tolist() for k in cfg["ks"]}
        laws.append({"mixture": spec, "points": points})

    models = []
    with warnings.catch_warnings():
        # the isotropic reference models have tied leading eigenvalues, which
        # closed_form_two_points reports with a warning before choosing e_1
        warnings.simplefilter("ignore", RuntimeWarning)
        for model in reference_models():
            models.append({
                "model": model.label(),
                "mixture": model.mixture.to_dict(),
                "two_points": closed_form_two_points(model).points.tolist(),
                "g": g_constant(model),
            })
    write_json(Path(args.out) / "sweep.json", {"ks": cfg["ks"], "laws": laws, "models": models})
    return 0


if __name__ == "__main__":
    sys.exit(main())
