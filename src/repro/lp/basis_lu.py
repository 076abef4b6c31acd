"""LU-factorized simplex basis: slack-eliminated kernel + eta updates.

The revised simplex (:mod:`repro.lp.revised`) never forms ``B^{-1}``:
every iteration needs one FTRAN (solve ``B x = v``) and one BTRAN
(solve ``B^T y = v``), and every pivot replaces exactly one basis
column. :class:`LUBasis` supports exactly that access pattern.

**Kernel elimination.** Most basic columns of a program-(7) basis are
slack unit vectors (about 60% at K = 10), and a unit column needs no
factorization. Let ``S`` be the structural basic columns and ``R`` the
rows whose slack is *not* basic; a nonsingular basis has
``|R| == |S| == k``. Ordering rows ``(R, other)`` and columns
``(S, slacks)`` puts ``B`` in block-triangular form::

    B ~ [ K  0 ]      K = A[R, S]       (k x k, the structural kernel)
        [ C  I ]      C = A[other, S]   (rows with a basic slack)

so only ``K`` is factorized, and the two solves reduce to

* FTRAN: ``x_S = K^{-1} v_R``, then ``x_slack = v_other - C x_S``;
* BTRAN: ``y_other = c_slack``, then ``y_R = K^{-T} (c_S - C^T c_slack)``.

A factorization costs O(k^3) instead of O(m^3), and an FTRAN or BTRAN
costs O(k^2 + (m - k) k) instead of O(m^2). The all-slack basis
(``k = 0``) needs no LAPACK call at all; the all-structural one
(``k = m``) is the plain dense LU.

**Direct LAPACK.** ``K = P L U`` comes from LAPACK ``getrf`` and the
solves from ``getrs``, resolved once at import: the same kernels
``scipy.linalg.lu_factor``/``lu_solve`` call (bitwise the same
results), without their per-call argument checking and array
conversion, which dominate at these sizes.

**Updates.** A pivot is a *product-form eta update*: after column
``a_q`` replaces basic position ``r``, with ``w = B_k^{-1} a_q`` (the
FTRAN of the entering column, which the simplex computes anyway for its
ratio test), ``B_{k+1}^{-1} = E_k B_k^{-1}`` where the elementary matrix
``E_k`` is the identity except for column ``r`` — an update is O(m)
storage and each later solve applies the eta in O(m). The eta file is
discarded and ``B`` refactorized from scratch every
:attr:`refactor_every` updates (bounded-length files keep both the work
per solve and the roundoff bounded), or eagerly whenever a pivot
element is too small for a stable eta.

The column convention matches the bounded revised simplex: columns
``[0, n)`` are the structural columns of a dense ``A``; columns
``[n, n + m)`` are slack identity columns (coefficient ``+1`` in their
row), so ``[A | I]`` is never materialised.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)

#: an eta pivot element smaller than this (relative to the eta column's
#: magnitude) triggers an eager refactorization instead of an update
_ETA_PIVOT_TOL = 1e-8

#: absolute floor under which a pivot is unusable even right after a
#: fresh factorization
_SINGULAR_TOL = 1e-11


class SingularBasisError(Exception):
    """The requested basis is singular (or numerically so)."""


class LUBasis:
    """One simplex basis: kernel LU base factorization + eta update file.

    Parameters
    ----------
    A:
        Dense structural columns (``m`` rows, ``n`` columns). Only read.
    basis:
        The ``m`` basic column indices (``< n`` structural, ``>= n``
        slack). Copied; :meth:`replace_column` keeps it current.
    refactor_every:
        Maximum eta-file length before the next :meth:`replace_column`
        triggers a refactorization.

    Raises
    ------
    SingularBasisError
        If the initial basis matrix does not factorize.
    """

    def __init__(self, A: np.ndarray, basis: np.ndarray, refactor_every: int = 64):
        self._A = A
        self._m = A.shape[0]
        self._n = A.shape[1]
        self.basis = np.asarray(basis, dtype=int).copy()
        if self.basis.shape != (self._m,):
            raise SingularBasisError(
                f"basis must have {self._m} columns, got {self.basis.shape}"
            )
        self.refactor_every = int(refactor_every)
        #: eta file: (pivot row r, eta column w = B^{-1} a_entering)
        self._etas: "list[tuple[int, np.ndarray]]" = []
        #: lifetime counters (a solve reports its own share of them)
        self.n_refactor = 0
        self.n_updates = 0
        self._factorize()

    # ------------------------------------------------------------------
    def _factorize(self) -> None:
        """(Re)factorize the current basis' kernel; drops the eta file."""
        basis = self.basis
        slack = basis >= self._n
        pos_s = (~slack).nonzero()[0]
        pos_l = slack.nonzero()[0]
        rows_l = basis[pos_l] - self._n
        free = np.ones(self._m, dtype=bool)
        free[rows_l] = False
        rows_r = free.nonzero()[0]
        if rows_r.size != pos_s.size:
            # a repeated slack leaves more free rows than structurals
            raise SingularBasisError("basis repeats a slack column")
        if pos_s.size:
            cols = basis[pos_s]
            lu, piv, info = _getrf(self._A[rows_r][:, cols], overwrite_a=1)
            if info != 0:
                raise SingularBasisError(f"getrf failed (info={info})")
            diag = np.abs(lu.diagonal())
            if not np.isfinite(lu).all() or diag.min() <= _SINGULAR_TOL * max(1.0, diag.max()):
                raise SingularBasisError("basis matrix is numerically singular")
            self._lu, self._piv = lu, piv
            self._C = self._A[rows_l][:, cols]
        self._pos_s, self._pos_l = pos_s, pos_l
        self._rows_r, self._rows_l = rows_r, rows_l
        self._etas = []
        self.n_refactor += 1

    def refactorize(self) -> None:
        """Public eager refactorization (drops the eta file)."""
        self._factorize()

    def matches(self, A: np.ndarray, basis: np.ndarray) -> bool:
        """Is this the factorization of ``basis`` over the *same* ``A``?

        Used by warm re-solves to skip the load-time factorization: a
        session hands back the LUBasis of its previous solve, and when
        the requested basis is unchanged (identical ``A`` object, equal
        basic column set) the factorization is still valid as-is.
        """
        return (
            self._A is A
            and self.basis.shape == np.shape(basis)
            and bool(np.array_equal(self.basis, basis))
        )

    @property
    def updates_since_refactor(self) -> int:
        return len(self._etas)

    # ------------------------------------------------------------------
    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``[A | I]`` (fresh array for slack columns)."""
        if j < self._n:
            return self._A[:, j]
        col = np.zeros(self._m)
        col[j - self._n] = 1.0
        return col

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B x = v`` (``v`` is not modified)."""
        x = np.empty(self._m)
        v_l = v[self._rows_l]
        if self._pos_s.size:
            x_s = _getrs(self._lu, self._piv, v[self._rows_r], overwrite_b=1)[0]
            x[self._pos_s] = x_s
            v_l -= self._C @ x_s
        x[self._pos_l] = v_l
        for r, w in self._etas:
            t = x[r] / w[r]
            if t != 0.0:
                x -= w * t
            x[r] = t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve ``B^T y = v`` (``v`` is not modified)."""
        c = np.array(v, dtype=float, copy=True)
        for r, w in reversed(self._etas):
            cr = c[r]
            c[r] = (cr - (w @ c - w[r] * cr)) / w[r]
        y = np.empty(self._m)
        c_l = c[self._pos_l]
        y[self._rows_l] = c_l
        if self._pos_s.size:
            rhs = c[self._pos_s] - c_l @ self._C
            y[self._rows_r] = _getrs(
                self._lu, self._piv, rhs, trans=1, overwrite_b=1
            )[0]
        return y

    # ------------------------------------------------------------------
    def replace_column(self, r: int, j: int, w: "np.ndarray | None" = None) -> None:
        """Basis change: column ``j`` becomes basic in position ``r``.

        ``w`` is the FTRAN of the entering column (``B^{-1} a_j``) under
        the *current* factorization; when omitted it is recomputed. If
        the eta pivot ``w[r]`` is too small for a stable product-form
        update, or the eta file is full, the basis is refactorized from
        scratch instead of updated.

        Raises
        ------
        SingularBasisError
            If the post-pivot basis does not factorize (the caller
            chose a pivot that makes ``B`` singular).
        """
        if w is None:
            w = self.ftran(self.column(j))
        self.basis[r] = j
        self.n_updates += 1
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        if (
            len(self._etas) >= self.refactor_every
            or abs(w[r]) <= _ETA_PIVOT_TOL * max(1.0, scale)
        ):
            self._factorize()
            return
        self._etas.append((int(r), np.array(w, dtype=float, copy=True)))
