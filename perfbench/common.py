"""Shared pieces of the maxcorr benchmark: locating the package, statistics,
the run environment, and an independent numpy reference for mu.

The reference deliberately shares no code with maxcorr: it recomputes the
marginal-normalized form, its realignment and the SVD directly, so a wrong
value from the package cannot also be the expected value.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# BLAS reads these once, when numpy loads, so they are pinned before that
# import; child interpreters inherit them.
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

RANK_TOL = 1e-10
"""Relative eigenvalue cutoff of the reference; the package default."""


class MissingPackage(RuntimeError):
    """The checkout holds no maxcorr sources to benchmark."""


def load_package():
    """Import maxcorr from the checkout's src/, never from an installed copy."""
    if not (SRC / "maxcorr" / "__init__.py").is_file():
        raise MissingPackage(f"no maxcorr package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import maxcorr

    if Path(maxcorr.__file__).resolve().parent != (SRC / "maxcorr").resolve():
        raise MissingPackage(f"imported maxcorr from {maxcorr.__file__}, not from {SRC}")
    return maxcorr


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# independent reference


def _pinv_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    cut = RANK_TOL * max(float(w[-1]), 0.0)
    keep = w > cut
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    return (v * inv) @ v.conj().T


def reference_mu(rho: np.ndarray, d_a: int, d_b: int) -> float:
    """Second singular value of the realigned marginal-normalized form."""
    r4 = np.asarray(rho, dtype=np.complex128).reshape(d_a, d_b, d_a, d_b)
    inv_a = _pinv_sqrt(np.einsum("ijkj->ik", r4))
    inv_b = _pinv_sqrt(np.einsum("ijik->jk", r4))
    # (I (x) inv_b) rho (inv_a (x) I), written on the four-index form.
    tilde = np.einsum("jb,ibcl,ck->ijkl", inv_b, r4, inv_a)
    realigned = tilde.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
    s = np.linalg.svd(realigned, compute_uv=False)
    return float(s[1]) if s.size > 1 else 0.0


def reference_mu_classical(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    p = p[p.sum(axis=1) > 0.0, :][:, p.sum(axis=0) > 0.0]
    tilde = p / np.sqrt(np.outer(p.sum(axis=1), p.sum(axis=0)))
    s = np.linalg.svd(tilde, compute_uv=False)
    return float(s[1]) if s.size > 1 else 0.0


def bell_fidelity(rho: np.ndarray) -> float:
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return float(np.real(v.conj() @ rho @ v))


def state_defects(rho: np.ndarray, psd_tol: float = 1e-10, trace_tol: float = 1e-10) -> list:
    """Reasons rho is not a density operator, empty when it is one."""
    out = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > 1e-10:
        out.append(f"not hermitian ({herm:.2e})")
    trace = abs(complex(np.trace(rho)) - 1.0)
    if trace > trace_tol:
        out.append(f"trace off by {trace:.2e}")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if low < -psd_tol:
        out.append(f"eigenvalue {low:.2e} below zero")
    return out
