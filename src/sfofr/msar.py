"""Least-squares estimation of the multivariate spatial autoregressive model.

The model on score matrices is Y = W Y rho + X B + E, with Y (n x Ky) holding
response scores, X (n x Kx) predictor scores, rho (Ky x Ky) the spatial
interaction matrix and B (Kx x Ky) the regression matrix. Its vectorized form
uses S = I - rho' (x) W, but no nKy x nKy matrix is ever materialized here:
every operator action is an n x Ky matrix product (dense Kronecker forms exist
only in the test oracles).

The objective is the least-squares criterion

    Q(Theta) = || m (.) S'(Omega_e (x) I)(S y - X* b) ||_F^2

with Omega_e the error precision and m the entrywise inverse of diag(Omega),
m[i, k] = 1 / (Omega_e[k, k] + (rho Omega_e rho')[k, k] * (W'W)[i, i]).

Omega_e is parameterized through its upper-triangular Cholesky factor U with
log-diagonal (zeta), which keeps it positive definite without constraints.
Q is exactly quadratic in B, so the fit profiles B out in closed form and runs
one quasi-Newton (BFGS) descent over (vec rho, zeta), as concentrated
quasi-maximum likelihood does for SAR models (Lee 2004, Econometrica). The
gradient is analytic in every block. Q(c Omega_e) = Q(Omega_e) for any c > 0,
so the first log-diagonal entry of U is held fixed. Candidate steps that push
the spectral radius of rho to 1 - iota or beyond are backtracked, and a
descent that ends at that bound is checked against one capped rerun (see
fit_msar).

Fitted values come from the reduced form M - W M rho = C. _triangular_solve
solves M - W M R = C for any R given as Z T Z^-1 with T upper triangular:
one shifted n x n solve per column of T, in triangular order, or, for a W
with a balance vector (the lattice kernels, see spatial), one division per
column in W's cached eigenbasis, and a single broadcast division when T is
diagonal. reduced_form_solve hands it the complex Schur form of rho, one
path for every rho; simgen.gen_response hands it the real eigenbasis of the
trapezoid-weighted rho surface. The divergence guard bounds rho(W) by the
maximum row sum of W (SpatialWeights.spectral_radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import DivergenceError, NumericalError, ParameterError
from .fdbasis import _read_only
from .spatial import SpatialWeights

IOTA = 1e-3  # spectral safety margin: |lambda_1(rho)| < 1 - IOTA


def spectral_radius(m) -> float:
    """Largest absolute eigenvalue of a small dense square matrix.

    Every caller passes a Ky x Ky matrix (rho or a candidate step), so one
    dense eigenvalue solve is exact to rounding and cheap.
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError("spectral_radius needs a square matrix")
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


@dataclass(frozen=True)
class MsarData:
    """Score matrices and weight matrix for one MSAR estimation problem.

    The pipeline always supplies mean-centered score columns. Centering is not
    enforced here because valid instances exist whose response is a raw
    reduced-form solve, and those columns pick up small nonzero means through
    the spatial mixing.
    """

    ymat: np.ndarray
    xmat: np.ndarray
    weights: SpatialWeights

    def __post_init__(self):
        ymat = np.atleast_2d(np.asarray(self.ymat, dtype=float))
        xmat = np.atleast_2d(np.asarray(self.xmat, dtype=float))
        object.__setattr__(self, "ymat", ymat)
        object.__setattr__(self, "xmat", xmat)
        n = ymat.shape[0]
        if xmat.shape[0] != n or self.weights.n != n:
            raise ParameterError("ymat, xmat and weights must agree on n")
        if not (np.all(np.isfinite(ymat)) and np.all(np.isfinite(xmat))):
            raise ParameterError("score matrices contain non-finite entries")

    @property
    def n(self) -> int:
        return self.ymat.shape[0]

    @property
    def k_y(self) -> int:
        return self.ymat.shape[1]

    @property
    def k_x(self) -> int:
        return self.xmat.shape[1]

    @cached_property
    def _products(self):
        """The W products every objective evaluation reuses."""
        w = self.weights
        wy = w.matmul(self.ymat)
        return {
            "wy": wy,
            "wty": w.rmatmul(self.ymat),
            "wtwy": w.rmatmul(wy),
            "wtx": w.rmatmul(self.xmat),
            "dwtw": w.diag_wtw(),
        }


@dataclass(frozen=True)
class MsarParams:
    """Parameter block (rho, B, upper-Cholesky factor of the error precision)."""

    rho: np.ndarray
    b: np.ndarray
    prec_chol: np.ndarray

    def __post_init__(self):
        rho = np.atleast_2d(np.asarray(self.rho, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        u = np.atleast_2d(np.asarray(self.prec_chol, dtype=float))
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "prec_chol", u)
        k_y = rho.shape[0]
        if rho.shape != (k_y, k_y):
            raise ParameterError("rho must be square")
        if b.shape[1] != k_y:
            raise ParameterError("b must have Ky columns")
        if u.shape != (k_y, k_y):
            raise ParameterError("prec_chol must be Ky x Ky")
        if np.any(np.tril(u, -1) != 0):
            raise ParameterError("prec_chol must be upper triangular")
        if np.any(np.diag(u) <= 0):
            raise ParameterError("prec_chol diagonal must be positive")
        if spectral_radius(rho) >= 1 - IOTA:
            raise ParameterError(
                f"spectral radius of rho must stay below 1 - {IOTA}"
            )

    @property
    def k_y(self) -> int:
        return self.rho.shape[0]

    @property
    def k_x(self) -> int:
        return self.b.shape[0]

    @property
    def omega_e(self) -> np.ndarray:
        """Error precision matrix Omega_e = U'U (symmetric positive definite)."""
        return self.prec_chol.T @ self.prec_chol


@dataclass(frozen=True)
class MsarFit:
    """Result of fit_msar: estimates plus convergence diagnostics.

    ``objective_trace`` and ``spectral_radius_trace`` record the objective and
    |lambda_1(rho)| at the start and after every accepted step of the descent;
    ``iterations`` counts those steps. ``fit_msar`` leaves ``warm_iterations``
    at 0; fit bundles still record the field.
    """

    params: MsarParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    objective_trace: tuple
    tolerance: float
    warm_iterations: int = 0
    message: str = ""
    spectral_radius_trace: tuple = ()


# --- parameter packing -----------------------------------------------------
# Flat layout: vec(rho) (column-major), vec(B) (column-major), then the upper
# triangle of prec_chol row-major with the diagonal stored as logs.


@lru_cache
def _triu(k_y: int):
    """Read-only upper-triangle indices of a k_y x k_y matrix, and the mask of
    their diagonal entries."""
    iu = np.triu_indices(k_y)
    diag = iu[0] == iu[1]
    return tuple(map(_read_only, iu)), _read_only(diag)


def _pack(rho: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    iu, diag = _triu(rho.shape[0])
    z = u[iu].copy()
    z[diag] = np.log(np.diag(u))
    return np.concatenate([rho.ravel(order="F"), b.ravel(order="F"), z])


def _unpack(theta: np.ndarray, k_y: int, k_x: int):
    nr = k_y * k_y
    nb = k_x * k_y
    rho = theta[:nr].reshape(k_y, k_y, order="F")
    b = theta[nr : nr + nb].reshape(k_x, k_y, order="F")
    u = np.zeros((k_y, k_y))
    u[_triu(k_y)[0]] = theta[nr + nb :]
    d = np.arange(k_y)
    u[d, d] = np.exp(u[d, d])
    return rho, b, u


# --- operator actions ------------------------------------------------------


def apply_S(rho: np.ndarray, weights: SpatialWeights, m: np.ndarray) -> np.ndarray:
    """Action of S = I - rho' (x) W on the matrix form: returns M - W M rho."""
    return m - weights.matmul(m) @ rho


def preconditioner_m(
    rho: np.ndarray, prec_chol: np.ndarray, weights: SpatialWeights
) -> np.ndarray:
    """Entrywise inverse of diag(Omega) arranged as an n x Ky matrix.

    Entry (i, k) is 1 / (Omega_e[k, k] + (rho Omega_e rho')[k, k] * (W'W)[i, i]).
    """
    return _m_from(prec_chol.T @ prec_chol, rho, weights.diag_wtw())


def _m_from(omega_e, rho, dwtw):
    quad = np.einsum("ij,jk,ik->i", rho, omega_e, rho)  # diag(rho Omega_e rho')
    return 1.0 / (np.diag(omega_e)[None, :] + np.outer(dwtw, quad))


def _chain(theta: np.ndarray, data: MsarData):
    """Parameters and the n x Ky pieces of Q: (rho, U, Omega_e,
    R = Y - W Y rho - X B, W'R, G = R Omega_e - W'R Omega_e rho', m)."""
    rho, b, u = _unpack(theta, data.k_y, data.k_x)
    omega_e = u.T @ u
    p = data._products
    r = data.ymat - p["wy"] @ rho - data.xmat @ b
    rt = p["wty"] - p["wtwy"] @ rho - p["wtx"] @ b
    g = r @ omega_e - (rt @ omega_e) @ rho.T
    return rho, u, omega_e, r, rt, g, _m_from(omega_e, rho, p["dwtw"])


def _objective_raw(theta: np.ndarray, data: MsarData) -> float:
    """Q at packed parameters, using the cached W products (no n^2 work)."""
    *_, g, m = _chain(theta, data)
    return float(np.sum((m * g) ** 2))


def objective(params: MsarParams, data: MsarData) -> float:
    """Least-squares objective Q(Theta) >= 0, computed Kronecker-free.

    Equivalent chain: R = Y - W Y rho - X B; N = R Omega_e;
    G = N - W' N rho'; Q = ||m (.) G||_F^2.
    """
    return _objective_raw(_pack(params.rho, params.b, params.prec_chol), data)


def _gradient_raw(theta: np.ndarray, data: MsarData) -> np.ndarray:
    """Analytic dQ over the packed layout (vec rho, vec B, zeta).

    With C = 2 m^2 (.) G and A = -2 m^3 (.) G^2 (the derivative of Q through
    the denominators of m), the residual R carries gR = (C - W C rho) Omega_e,
    and d = diag(W'W) weights A's share through diag(rho Omega_e rho'). The
    Omega_e block S is chained to U by dQ/dU = U (S + S'), and to the
    log-diagonal of zeta by one more factor of diag(U).
    """
    rho, u, omega_e, r, rt, g, m = _chain(theta, data)
    p = data._products
    c = 2.0 * m * m * g
    a = -2.0 * m**3 * g**2
    a_d = p["dwtw"] @ a
    g_r = (c - data.weights.matmul(c) @ rho) @ omega_e
    g_rho = (
        -p["wy"].T @ g_r - (c.T @ rt) @ omega_e + 2.0 * (a_d[:, None] * rho) @ omega_e
    )
    g_b = -data.xmat.T @ g_r
    s = r.T @ c - (rt.T @ c) @ rho + np.diag(a.sum(axis=0)) + rho.T @ (a_d[:, None] * rho)
    g_u = u @ (s + s.T)
    iu, diag = _triu(data.k_y)
    g_z = g_u[iu]
    g_z[diag] *= np.diag(u)
    return np.concatenate([g_rho.ravel(order="F"), g_b.ravel(order="F"), g_z])


def gradient(params: MsarParams, data: MsarData) -> np.ndarray:
    """Flat gradient of Q over (vec rho, vec B, zeta); all blocks analytic."""
    return _gradient_raw(_pack(params.rho, params.b, params.prec_chol), data)


# --- estimation -------------------------------------------------------------


def _profile_b(theta: np.ndarray, data: MsarData) -> np.ndarray:
    """argmin over B of Q at theta's rho and zeta (theta's B block is ignored).

    G is affine in B, so this is one linear least-squares problem of size
    nKy x KxKy.
    """
    k_y, k_x = data.k_y, data.k_x
    theta = theta.copy()
    theta[k_y * k_y : k_y * (k_y + k_x)] = 0.0
    rho, _, omega_e, _, _, g0, m = _chain(theta, data)
    wtx = data._products["wtx"]
    # design[i, k, q, pp] = -dG[i, k] / dB[pp, q]; (q, pp) flattens to vec(B)
    design = np.einsum("ip,qk->ikqp", data.xmat, omega_e) - np.einsum(
        "ip,qk->ikqp", wtx, omega_e @ rho.T
    )
    design = (m[:, :, None, None] * design).reshape(data.n * k_y, k_y * k_x)
    sol, *_ = np.linalg.lstsq(design, (m * g0).ravel(), rcond=None)
    return sol.reshape(k_x, k_y, order="F")


def _bfgs_update(h, s, yv):
    sy = s @ yv
    if sy <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
        return h
    hy = h @ yv
    return (
        h
        + ((sy + yv @ hy) / sy**2) * np.outer(s, s)
        - (np.outer(hy, s) + np.outer(s, hy)) / sy
    )


def _default_init(data: MsarData) -> np.ndarray:
    """Cholesky factor of the inverse OLS residual covariance (identity if singular)."""
    b0, *_ = np.linalg.lstsq(data.xmat, data.ymat, rcond=None)
    resid = data.ymat - data.xmat @ b0
    sigma = resid.T @ resid / data.n
    try:
        u0 = np.linalg.cholesky(np.linalg.inv(sigma)).T
        if np.any(np.diag(u0) <= 0) or not np.all(np.isfinite(u0)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        u0 = np.eye(data.k_y)
    return u0


def fit_msar(
    data: MsarData,
    init: MsarParams | None = None,
    tol: float | None = None,
    max_iter: int = 500,
) -> MsarFit:
    """One safeguarded BFGS descent of Q with B profiled out.

    The search runs over x = (vec rho, zeta without its first entry). Each
    evaluation solves B = argmin_B Q in closed form (``_profile_b``), and by
    the envelope theorem the search gradient is the rho and zeta blocks of the
    analytic gradient at that B. The first log-diagonal entry of U stays at
    its start value: Q(c Omega_e) = Q(Omega_e), so it is a flat direction.

    The descent starts from ``init``'s rho and U (B is re-profiled), or by
    default from rho = 0 and Omega_e the inverse OLS residual covariance,
    where the profiled B is OLS. Every candidate step is backtracked until
    |lambda_1(rho)| < 1 - iota and an Armijo decrease holds, so the objective
    trace is nonincreasing and all iterates are feasible. Convergence is
    declared when the search gradient norm drops to ``tol`` (default
    1e-8 * max(1, Q_start)); otherwise the fit stops at ``max_iter`` or when
    no further descent step exists, with the reason in ``message``.

    A descent that ends with the spectral constraint binding is rerun from
    the same start (when that start lies inside the cap) with the spectral
    radius capped at 0.5, and the capped fit replaces it when its objective
    is within 5%.
    """
    k_y, k_x = data.k_y, data.k_x
    if data.n <= k_y + k_x:
        raise ParameterError(
            f"need n > Ky + Kx = {k_y + k_x} observations for identifiability"
        )
    if init is not None:
        if init.k_y != k_y or init.k_x != k_x:
            raise ParameterError("init dimensions do not match data")
        rho0, u0 = init.rho, init.prec_chol
    else:
        rho0, u0 = np.zeros((k_y, k_y)), _default_init(data)
    nr, nb = k_y * k_y, k_x * k_y
    base = _pack(rho0, np.zeros((k_x, k_y)), u0)
    free = np.r_[0:nr, nr + nb + 1 : base.size]

    def evaluate(x):
        theta = base.copy()
        theta[free] = x
        theta[nr : nr + nb] = _profile_b(theta, data).ravel(order="F")
        return _objective_raw(theta, data), theta

    x0 = base[free]
    start = evaluate(x0)
    if not np.isfinite(start[0]):
        raise NumericalError("objective is non-finite at the starting point")
    if tol is None:
        tol = 1e-8 * max(1.0, start[0])
    eye = np.eye(x0.size)

    def descend(cap):
        x, (q, theta) = x0, start
        trace = [q]
        sr_trace = [spectral_radius(rho0)]
        grad = _gradient_raw(theta, data)[free]
        h = eye
        message = "max_iter reached"
        for it in range(max_iter):
            if np.linalg.norm(grad) <= tol:
                break
            d = -h @ grad
            if d @ grad >= 0:  # safeguard against loss of positive definiteness
                h, d = eye, -grad
            reach = max(1.0, np.linalg.norm(x)) / max(np.linalg.norm(d), 1e-300)
            step = min(1.0, reach) if it == 0 else 1.0
            accepted = saw_feasible = False
            # stop once the trial displacement is negligible relative to x
            while step > 1e-15 * reach:
                cand = x + step * d
                sr_cand = spectral_radius(cand[:nr].reshape(k_y, k_y, order="F"))
                if sr_cand < cap:
                    saw_feasible = True
                    q_cand, theta_cand = evaluate(cand)
                    if np.isfinite(q_cand) and q_cand <= q + 1e-4 * step * (grad @ d):
                        accepted = True
                        break
                step *= 0.5
            if not accepted:
                if h is not eye:
                    h = eye  # restart with steepest descent once
                    continue
                message = (
                    "line search found no further descent"
                    if saw_feasible
                    else "stopped at the spectral-radius constraint boundary"
                )
                break
            grad_new = _gradient_raw(theta_cand, data)[free]
            s, yv = cand - x, grad_new - grad
            if it == 0 and s @ yv > 0:
                h = ((s @ yv) / (yv @ yv)) * eye
            h = _bfgs_update(h, s, yv)
            x, q, theta, grad = cand, q_cand, theta_cand, grad_new
            trace.append(q)
            sr_trace.append(sr_cand)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            message = "gradient norm below tolerance"
        return theta, q, grad_norm, trace, sr_trace, message

    theta, q, grad_norm, trace, sr_trace, message = descend(1 - IOTA)
    if sr_trace[-1] >= 1 - 2 * IOTA and sr_trace[0] < 0.5:
        # Near the boundary S approaches singularity and Q loses its power to
        # discriminate, so weakly dependent data can show a spurious
        # maximal-dependence minimum. A rerun capped at spectral radius 0.5
        # wins when it costs at most 5% of Q; strong dependence costs more.
        capped = descend(0.5)
        if capped[1] <= 1.05 * q:
            theta, q, grad_norm, trace, sr_trace, message = capped
            message += "; interior solution preferred over boundary minimum"
    rho, b, u = _unpack(theta, k_y, k_x)
    return MsarFit(
        params=MsarParams(rho=rho, b=b, prec_chol=u),
        objective=q,
        grad_norm=grad_norm,
        iterations=len(trace) - 1,
        converged=grad_norm <= tol,
        objective_trace=tuple(trace),
        tolerance=float(tol),
        message=message,
        spectral_radius_trace=tuple(sr_trace),
    )


# --- reduced-form solver ----------------------------------------------------


def reduced_form_solve(
    rho: np.ndarray, weights: SpatialWeights, c: np.ndarray
) -> np.ndarray:
    """Solve M - W M rho = C, the matrix form of (I - rho' (x) W) vec(M) = vec(C).

    The complex Schur form rho = Z T Z^H (T upper triangular) hands the
    system to ``_triangular_solve``. This is the Bartels-Stewart reduction
    (1972), backward stable for every rho, defective ones included. rho = 0
    returns a copy of C.

    Raises DivergenceError when |lambda_1(rho)|, read from the Schur diagonal
    max |T[k, k]|, times the bound ``weights.spectral_radius()`` on rho(W)
    reaches 1.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n, k_y = c.shape
    if rho.shape != (k_y, k_y):
        raise ParameterError("rho must be Ky x Ky matching C's columns")
    if weights.n != n:
        raise ParameterError("weights size must match C's rows")
    if not np.any(rho):
        return c.copy()
    t, z = linalg.schur(rho, output="complex")
    return _triangular_solve(t, z, z.conj().T, weights, c)


def _triangular_solve(
    t: np.ndarray, z: np.ndarray, z_inv: np.ndarray, weights: SpatialWeights, c: np.ndarray
) -> np.ndarray:
    """Solve M - W M R = C for real M, given R = Z T Z^-1 with T upper triangular.

    With N = M Z the system becomes N - W N T = C Z, which is solved column
    by column, in order:

        (I - T[k, k] W) N[:, k] = (C Z)[:, k] + W N[:, :k] T[:k, k],

    one shifted n x n solve per column (dense LU, or sparse LU for CSR W),
    and M = Re(N Z^-1). The arithmetic is complex only when T is; W stays
    real and is applied to the real and imaginary parts separately. A W with
    a balance vector d (``SpatialWeights.balance``) has the spectral form
    W = P diag(lambda) P^-1 (``SpatialWeights._spectrum``) and is solved in
    its eigenbasis instead, N = P Y, where each shifted solve is a division:

        Y[:, k] = ((P^-1 C Z)[:, k] + lambda (.) Y[:, :k] T[:k, k]) / (1 - T[k, k] lambda),

    so a diagonal T makes Y one broadcast division; M = P Re(Y Z^-1).

    Raises DivergenceError when max |T[k, k]| times the bound
    ``weights.spectral_radius()`` on rho(W) reaches 1.
    """
    shifts = np.diag(t)
    sr = float(np.max(np.abs(shifts))) * weights.spectral_radius()
    if sr >= 1:
        raise DivergenceError(
            f"spectral radius bound of rho' (x) W is {sr:.6g} >= 1; system diverges"
        )
    spectrum = weights._spectrum
    if spectrum is not None:
        lam, q, root = spectrum
        rhs = (q.T @ (root[:, None] * c)) @ z  # P^-1 C Z, with P^-1 = Q' D^{1/2}
        denom = 1 - np.outer(lam, shifts)
        if not np.any(np.triu(t, 1)):
            out = rhs / denom
        else:
            out = np.empty_like(rhs)
            for k in range(shifts.size):
                out[:, k] = (rhs[:, k] + lam * (out[:, :k] @ t[:k, k])) / denom[:, k]
        return q @ (out @ z_inv).real / root[:, None]
    rhs = c @ z
    n, w = weights.n, weights.matrix
    if sp.issparse(w):
        w, eye, solve = sp.csc_array(w), sp.identity(n, format="csc"), spla.spsolve
    else:
        eye, solve = np.eye(n), np.linalg.solve
    out = np.empty_like(rhs)
    for k in range(shifts.size):
        lag = out[:, :k] @ t[:k, k]
        b = rhs[:, k] + weights.matmul(lag.real)
        if np.iscomplexobj(lag):
            b = b + 1j * weights.matmul(lag.imag)
        out[:, k] = solve(eye - t[k, k] * w, b)
    return np.ascontiguousarray((out @ z_inv).real)
