"""Build the m0 = 1 strip kernel in a process of its own and save it.

    python3 perfbench/fixture.py BASE REPEATS

Builds the kernel REPEATS times, as the `semigroup`, `witness` and
`truncate` subcommands build it for a growth function with M(0) = 1, saves
the last build with ``specialfn.save_kernel`` at BASE, and prints the build
times as a JSON list.  The benchmark's process loads the saved kernel, so its
peak resident set covers the operations, not the dense Fourier blocks of the
build.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from tauberlab import specialfn


def main(base: str, repeats: int) -> None:
    seconds = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel = specialfn.build_kernel(specialfn.build_strip_function(1.0))
        seconds.append(perf_counter() - t0)
    specialfn.save_kernel(kernel, base)
    print(json.dumps(seconds))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
