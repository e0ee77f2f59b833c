"""Check `snf_integer` against the brute-force Delta_k oracle over the whole
n = 7 corpus: snf_integer(M).delta(k) == delta_bruteforce(M, k) for every
connected 7-vertex graph, every matrix kind and k = 1..7.

    PYTHONPATH=src python tools/delta_oracle.py

Prints one line per kind with its time, and exits 1 after naming every
mismatch (graph6, kind, k, both values), 0 if there is none.
"""

import sys
import time

from detideals.graphs import MATRIX_KINDS, build_matrix, enumerate_connected, write_graph6
from detideals.smith import delta_bruteforce, snf_integer

N = 7


def main() -> int:
    corpus = enumerate_connected(N)
    bad = 0
    for kind in MATRIX_KINDS:
        start = time.perf_counter()
        for g in corpus:
            m = build_matrix(g, kind)
            snf = snf_integer(m)
            for k in range(1, N + 1):
                want, got = snf.delta(k), delta_bruteforce(m, k)
                if want != got:
                    bad += 1
                    print(f"MISMATCH {write_graph6(g)} {kind} k={k}: "
                          f"snf_integer {want}, delta_bruteforce {got}")
        print(f"{kind}: {len(corpus)} graphs, k = 1..{N}, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
