"""Communication-cost model: closed forms, the executed-protocol meter, and
the dimension-dominance effect.

Run: python3 demos/bench_costs.py
"""

import numpy as np

from tnmpcqep.bench import ACTIVE_OF, BenchConfig, execute_scenario, run_scenario


def main():
    print("scenario 2 (secure aggregation, passive), bits by link:")
    print(f"  {'n':>3} {'d':>4} {'client->node':>14} {'node<->node':>12} "
          f"{'reconstruct':>12} {'total':>12}")
    for n, d in ((4, 64), (16, 64), (16, 784), (30, 784)):
        r = run_scenario(BenchConfig(n=n, d=d), 2)
        print(f"  {n:>3} {d:>4} {r.client_to_node_bits:>14} {r.node_to_node_bits:>12} "
              f"{r.reconstruction_bits:>12} {r.total_bits:>12}")

    cfg = BenchConfig(n=4, d=8)
    closed = run_scenario(cfg, 2)
    rng = np.random.default_rng(0)
    features = rng.uniform(0.0, 1.0, size=(cfg.n, cfg.d))
    weights = rng.uniform(0.5, 2.0, size=cfg.n)
    x, measured = execute_scenario(cfg, 2, features, weights, seed=0)
    print(f"\nexecuted protocol at n=4, d=8: meter {measured.total_bits} bits, "
          f"closed form {closed.total_bits}, equal: {measured == closed}")
    print(f"aggregate head: {x[:4].round(6)}")

    print("\nfeature dimension dominates the participant count (scenario 1):")
    for n in (4, 10, 20, 30):
        hi = run_scenario(BenchConfig(n=n, d=784), 1).total_bits
        lo = run_scenario(BenchConfig(n=n, d=64), 1).total_bits
        print(f"  n={n:>2}: total(d=784) / total(d=64) = {hi / lo:.2f}")

    print("\nactive security doubles every scenario (n=16, d=64):")
    for active, passive in ACTIVE_OF.items():
        p = run_scenario(BenchConfig(), passive).total_bits
        a = run_scenario(BenchConfig(), active).total_bits
        print(f"  S{passive} {p:>10} bits -> S{active} {a:>10} bits (x{a / p:.0f})")


if __name__ == "__main__":
    main()
