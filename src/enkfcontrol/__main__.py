"""``python -m enkfcontrol`` and the ``enkfcontrol`` script: the CLI on one BLAS thread.

OpenBLAS's LAPACK routines give other bits at two threads than at one, so
the pin makes a config and seed write the same bytes at any thread count;
two threads are not faster at the default sizes.  BLAS reads the count when
numpy loads, so ``main`` sets it before it imports ``cli``.  A caller of
``cli.main`` in its own process, such as the benchmark, keeps its own count.
"""

import os


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    raise SystemExit(main())
