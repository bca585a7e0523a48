"""Shared test set-up: BLAS and OpenMP run one thread, set before numpy is
imported, since the suite's matrices are small and a second thread costs CPU
time without saving wall time."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
