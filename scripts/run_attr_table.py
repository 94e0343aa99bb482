#!/usr/bin/env python3
"""Attribution-metric tables on the built-in benchmarks, as two attr-eval reports.

Part one judges saliency, input-x-gradient, integrated gradients, and a random
baseline on the six-variable analytic test function. Part two explains the
token-count classifier at the holdout sample ``bench.choose_explained_point``
picks and adds the perturbation test at each method's effective complexity.
"""

import argparse
import sys

from xmeter import bench, park
from xmeter.cli import main as xmeter


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-mc", type=int, default=5000)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--token-epsilon", type=float, default=0.02)
    parser.add_argument("--pt-n", type=int, default=500)
    args = parser.parse_args()
    common = ["--n-mc", str(args.n_mc), "--seed", str(args.seed)]
    point = ",".join(map(repr, park.PARK_POINT))
    code = xmeter(["attr-eval", "--model", "park", "--point", point,
                   "--epsilon", repr(args.epsilon)] + common)
    if code:
        return code
    data, model = bench.token_benchmark(args.seed)
    x_star = data.features[bench.choose_explained_point(data, model)]
    tokens = f"tokens:seed={args.seed}"
    return xmeter(["attr-eval", "--model", tokens, "--dataset", tokens,
                   "--methods", "saliency,inpxgrad,intgrad",
                   "--point", ",".join(map(repr, x_star.tolist())),
                   "--epsilon", repr(args.token_epsilon),
                   "--pt", "ec", "--pt-n", str(args.pt_n)] + common)


if __name__ == "__main__":
    sys.exit(main())
