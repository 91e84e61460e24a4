#!/usr/bin/env python3
"""Full analysis of one two-qubit state: entropic quantities, the
operational discord with its optimizing decomposition, and the pinching
fixed-point search.

Usage: python scripts/run_bell_analysis.py [--werner P]

With --werner P the state is P |phi+><phi+| + (1-P) I/4 instead of the
Bell state itself.
"""

import argparse
import sys

import numpy as np

import opdiscord as od


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--werner", type=float, default=None, metavar="P")
    args = parser.parse_args()

    qubit = od.make_quantum(2)
    pair = od.compose_theories(qubit, qubit)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    mat = np.outer(phi, phi.conj())
    if args.werner is not None:
        p = args.werner
        mat = p * mat + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    rho = pair.state_from_matrix(mat)

    entropic = od.quantum_discord_entropy(rho)
    print(f"S(A) = {entropic.S_A:.6f}  S(B) = {entropic.S_B:.6f}  S(AB) = {entropic.S_AB:.6f}")
    print(f"mutual information      I = {entropic.mutual_information:.6f}")
    print(f"best measurement        J = {entropic.J_value:.6f}")
    print(f"entropic discord        D = {entropic.discord_value:.6f}")

    result = od.discord(rho)
    print(f"operational discord       = {result.value:.6f}"
          f"  (exact at the reported optimizer; upper bound over the search)")
    print(f"outer evaluations         = {result.outer_evaluations}")
    weights = ", ".join(f"{w:.4f}" for w in result.optimizer.weights)
    print(f"optimizer weights         = [{weights}]")

    basis = od.find_fixed_point_basis(rho)
    if basis is None:
        print("pinching fixed point      : none among the four candidates (discordant state)")
    else:
        print("pinching fixed point      : found (null-discord state)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
