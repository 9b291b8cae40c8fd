"""Least-squares estimation of the multivariate spatial autoregressive model.

The model on score matrices is Y = W Y rho + X B + E, with Y (n x Ky) holding
response scores, X (n x Kx) predictor scores, rho (Ky x Ky) the spatial
interaction matrix and B (Kx x Ky) the regression matrix. Its vectorized form
uses S = I - rho' (x) W, but no nKy x nKy matrix is ever materialized here:
every operator action is an n x Ky matrix product (dense Kronecker forms exist
only in the test oracles).

The objective is the least-squares criterion

    Q(Theta) = || m (.) S'(Omega_e (x) I)(S y - X* b) ||_F^2

with Omega_e the error precision and m the entrywise inverse of diag(Omega)
(``preconditioner_m``). Omega_e is parameterized through its upper-triangular
Cholesky factor U with log-diagonal (zeta), which keeps it positive definite
without constraints. fit_msar minimizes Q; reduced_form_solve gives fitted
values from the reduced form M - W M rho = C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as linalg

from .exceptions import NumericalError, ParameterError, _check_count
from .fdbasis import _read_only
from .spatial import SpatialWeights

IOTA = 1e-3  # spectral safety margin: |lambda_1(rho)| < 1 - IOTA


def spectral_radius(m) -> float:
    """Largest absolute eigenvalue of a small dense square matrix (rho or a
    candidate step), by one dense eigenvalue solve."""
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
        wtx = w.rmatmul(self.xmat)
        return {
            "wy": wy,
            "wty": w.rmatmul(self.ymat),
            "wtwy": w.rmatmul(wy),
            "wtx": wtx,
            "x_wtx": np.concatenate([self.xmat, wtx], axis=1),
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
            raise ParameterError(f"spectral radius of rho must stay below 1 - {IOTA}")

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
    |lambda_1(rho)| at the start and after every accepted step of the fit;
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
    nr, nb = k_y * k_y, k_x * k_y
    rho = theta[:nr].reshape(k_y, k_y, order="F")
    b = theta[nr : nr + nb].reshape(k_x, k_y, order="F")
    u = np.zeros((k_y, k_y))
    u[_triu(k_y)[0]] = theta[nr + nb :]
    u[np.diag_indices(k_y)] = np.exp(np.diag(u))
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
    """Least-squares objective Q(Theta) = ||m (.) G||_F^2 >= 0, Kronecker-free
    (G as in ``_chain``)."""
    return _objective_raw(_pack(params.rho, params.b, params.prec_chol), data)


def _gradient_raw(theta: np.ndarray, data: MsarData) -> np.ndarray:
    """dQ = 2 J'(m (.) G) over (vec rho, vec B, zeta), where J joins
    ``_jacobian``'s rho columns, -``_b_design`` and its zeta columns."""
    chain = _chain(theta, data)
    jac, nr = _jacobian(chain, data), data.k_y * data.k_y
    jac = np.concatenate([jac[:, :nr], -_b_design(chain, data), jac[:, nr:]], axis=1)
    return 2.0 * jac.T @ (chain[-1] * chain[-2]).ravel()


# --- estimation -------------------------------------------------------------


@lru_cache
def _unit_steps(rows: int, cols: int) -> np.ndarray:
    """Read-only unit steps of a rows x cols matrix in vec order:
    steps[a + b rows] = e_a e_b'."""
    return _read_only(np.eye(rows * cols).reshape(-1, cols, rows).transpose(0, 2, 1))


@lru_cache
def _rho_steps(k: int):
    """Read-only d rho over ``_jacobian``'s variables (unit steps of rho, then
    zero for every zeta entry), its transpose, and the zero dOmega of the rho
    variables."""
    zeros = np.zeros((k * k, k, k))
    d_rho = np.concatenate([_unit_steps(k, k), zeros[: len(_triu(k)[1])]])
    return _read_only(d_rho), _read_only(d_rho.transpose(0, 2, 1)), _read_only(zeros)


def _jacobian(chain, data: MsarData) -> np.ndarray:
    """d(m (.) G)/dx at ``_chain``'s pieces, B held fixed, over x = (vec rho,
    all of zeta); rows follow the row-major n x Ky residual. Variable t moves
    rho by d rho[t] and Omega_e by dOmega[t] = dU'U + U'dU; with dR = -WY d rho,
    dG = dR Omega_e + R dOmega - W'dR Omega_e rho' - W'R (dOmega rho' +
    Omega_e d rho'), and m moves by -m^2 (.) (diag(dOmega) + diag(W'W)
    diag(d(rho Omega_e rho'))).
    """
    rho, u, omega_e, r, rt, g, m = chain
    k, p = data.k_y, data._products
    (rows, cols), diag = _triu(k)
    # dU'U has row j = U[i, :] times the step of U[i, j]: U[i, i] if i == j, else 1
    lead = np.where(diag, u[rows, cols], 1.0)[:, None] * u[rows]
    half = np.eye(k)[cols, :, None] * lead[:, None, :]
    d_rho, d_rho_t, zeros = _rho_steps(k)
    d_omega = np.concatenate([zeros, half + half.transpose(0, 2, 1)])
    rot = omega_e @ rho.T
    coef = np.concatenate(
        [-d_rho @ omega_e, d_rho @ rot, d_omega, -d_omega @ rho.T - omega_e @ d_rho_t], axis=1
    )
    d_g = np.concatenate([p["wy"], p["wtwy"], r, rt], axis=1) @ coef
    d_quad = np.einsum("tkk->tk", 2.0 * d_rho @ rot + rho @ d_omega @ rho.T)
    d_m = np.einsum("tkk->tk", d_omega)[:, None] + p["dwtw"][:, None] * d_quad[:, None]
    return (m * d_g - (m * m * g) * d_m).reshape(len(coef), -1).T


def _b_design(chain, data: MsarData) -> np.ndarray:
    """D = -d(m (.) G)/d vec(B) at ``_chain``'s rho, Omega_e and m; D does not
    depend on B. A step dB moves G by -X dB Omega_e + W'X dB Omega_e rho'."""
    rho, _, omega_e, *_, m = chain
    steps = _unit_steps(data.k_x, data.k_y)
    coef = np.concatenate([steps @ omega_e, -steps @ omega_e @ rho.T], axis=1)
    design = data._products["x_wtx"] @ coef
    return (m * design).reshape(len(steps), -1).T


def _profiled(theta: np.ndarray, data: MsarData):
    """Profile B out of Q at theta's rho and zeta (theta's B block is ignored).

    m (.) G = m (.) G0 - D vec(B), with G0 its value at B = 0 and D from
    ``_b_design``. The thin SVD of D gives the minimum-norm B, an orthonormal
    basis Q of range(D) and r = (I - QQ')(m (.) G0), which is m (.) G at that
    B. Returns theta with B filled, r, Q and ``_chain`` at that B.
    """
    k_y, k_x = data.k_y, data.k_x
    block = slice(k_y * k_y, k_y * (k_y + k_x))
    theta = theta.copy()
    theta[block] = 0.0
    chain = rho, u, omega_e, r0, rt0, g0, m = _chain(theta, data)
    wtx = data._products["wtx"]
    qmat, sv, vt = np.linalg.svd(_b_design(chain, data), full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(qmat.shape) * np.finfo(float).eps))  # lstsq's cutoff
    qmat, y = qmat[:, :rank], (m * g0).ravel()
    coef = qmat.T @ y
    resid = y - qmat @ coef
    b = (vt[:rank].T @ (coef / sv[:rank])).reshape(k_x, k_y, order="F")
    theta[block] = b.ravel(order="F")
    chain = rho, u, omega_e, r0 - data.xmat @ b, rt0 - wtx @ b, resid.reshape(m.shape) / m, m
    return theta, resid, qmat, chain


def _start_chol(data: MsarData) -> np.ndarray:
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


def _secant_update(sec, step, y_sharp, y):
    """NL2SOL's update of S ~ sum_i r_i Hess(r_i) after an accepted step
    (Dennis, Gay and Welsch 1981): S is sized by min(1, |s'y#| / |s'Ss|),
    then moved by the symmetric rank-two change that gives S s = y#, unless
    y's <= 0. With J, J+ the projected Jacobians before and after the step
    and r+ the residual after it, y# = J+'r+ - J'r+ and y = J+'r+ - J'r."""
    curv = step @ sec @ step
    if curv != 0:
        sec = min(1.0, abs(step @ y_sharp) / abs(curv)) * sec
    ys = y @ step
    if not ys > 0:
        return sec
    w = y_sharp - sec @ step
    # (w y' + y w') / y's - (w's) y y' / (y's)^2, written as u y' + y u'
    u = w / ys - (w @ step) / (2 * ys * ys) * y
    return sec + (np.outer(u, y) + np.outer(y, u))


def fit_msar(
    data: MsarData,
    tol: float | None = None,
    max_iter: int = 500,
) -> MsarFit:
    """Levenberg-Marquardt (Moré 1978) on the variable-projection residual of Q.

    B enters the residual linearly, so each evaluation profiles it out
    (``_profiled``; Golub and Pereyra 1973). The search runs over x = (vec rho,
    zeta without its first entry, as Q(c Omega_e) = Q(Omega_e) for c > 0), from
    rho = 0 and the inverse OLS residual covariance. Kaufman's (1975) Jacobian
    J = (I - QQ') dr/dx (``_jacobian``) gives the damped step, which solves
    (H + lam I) step = -J'r for one of two models of Q's Hessian 2H:
    Gauss-Newton's H = J'J, or H = J'J + S with NL2SOL's secant term S
    (``_secant_update``). S starts at zero and is updated after every
    accepted step; the next step takes the model that predicted that step's
    change in Q better, so a fit whose Gauss-Newton model keeps predicting
    better takes Gauss-Newton steps only.
    As r is orthogonal to the B design, 2 J'r is dQ/dx at the profiled B
    (the envelope gradient): the one stop test and ``grad_norm`` read its
    norm. Candidates with |lambda_1(rho)| at the cap 1 - iota are refused by
    raising the damping. A candidate is accepted when it lowers Q, the change
    computed as (r_new - r).(r_new + r), or, at Q's rounding floor, when Q
    rises by at most 64 eps Q and |J'r| falls.

    ``message`` says why the fit stopped: "gradient norm below tolerance"
    (``converged``: 2 |J'r| <= ``tol``, by default 1e-8 * max(1, Q_start));
    "stopped at the spectral-radius constraint boundary" (the cap blocked the
    damped steps); "no step lowers Q"; or "max_iter reached". A fit that ends
    at the cap is rerun from the same start with the spectral radius capped
    at 0.5, and the capped fit replaces it when its objective is within 5%.
    """
    max_iter = _check_count("max_iter", max_iter, 0)
    k_y, k_x = data.k_y, data.k_x
    if data.n <= k_y + k_x:
        raise ParameterError(f"need n > Ky + Kx = {k_y + k_x} observations for identifiability")
    start = _profiled(_pack(np.zeros((k_y, k_y)), np.zeros((k_x, k_y)), _start_chol(data)), data)
    free = np.r_[0 : k_y * k_y, k_y * (k_y + k_x) + 1 : start[0].size]
    q0 = float(start[1] @ start[1])
    if not np.isfinite(q0):
        raise NumericalError("objective is non-finite at the starting point")
    if tol is None:
        tol = 1e-8 * max(1.0, q0)

    search = np.r_[0 : k_y * k_y, k_y * k_y + 1 : free.size + 1]  # zeta_0 is fixed

    def linearize(qmat, chain):
        jac = _jacobian(chain, data)[:, search]
        return jac - qmat @ (qmat.T @ jac)

    def descend(cap):
        theta, r, qmat, chain = start
        jac = linearize(qmat, chain)
        jtr, q, lam = jac.T @ r, q0, None
        jtr_norm, sec, secant = np.linalg.norm(jtr), np.zeros((search.size,) * 2), False
        trace, sr_trace, message = [q], [0.0], "max_iter reached"
        for _ in range(max_iter):
            if 2 * jtr_norm <= tol:
                break
            uj, sv, vt = np.linalg.svd(jac, full_matrices=False)
            ur = uj.T @ r
            lam = 1e-3 * sv[0] ** 2 if lam is None else lam
            if secant:  # steps solve (J'J + S + lam I) step = -J'r in J'J + S's eigenbasis
                mu, basis = np.linalg.eigh((vt.T * sv * sv) @ vt + sec)
                coef = basis.T @ jtr
            nu, blocked, accepted = 2.0, False, False
            while not accepted:
                if not secant:
                    z = -sv * ur / (sv * sv + lam + np.finfo(float).tiny)  # no 0/0 at sv = 0
                    step = vt.T @ z
                elif mu[0] + lam > 0:
                    step = -basis @ (coef / (mu + lam))
                    z = vt @ step
                else:  # J'J + S + lam I is not positive definite
                    lam, nu = lam * nu, 2 * nu
                    continue
                if np.linalg.norm(step) <= 1e-15 * max(1.0, np.linalg.norm(theta[free])):
                    break
                cand = theta.copy()
                cand[free] += step
                sr_cand = spectral_radius(cand[: k_y * k_y].reshape(k_y, k_y, order="F"))
                blocked |= sr_cand >= cap
                if sr_cand < cap:
                    cand, r_c, qmat_c, chain_c = _profiled(cand, data)
                    change = float((r_c - r) @ (r_c + r))
                    if change <= 64 * np.finfo(float).eps * q:  # lower, or at the floor
                        jac_c = linearize(qmat_c, chain_c)
                        jtr_c = jac_c.T @ r_c
                        accepted = change < 0 or np.linalg.norm(jtr_c) < jtr_norm
                if not accepted:
                    lam, nu = lam * nu, 2 * nu
            if not accepted:
                message = ("stopped at the spectral-radius constraint boundary" if blocked
                           else "no step lowers Q")
                break
            predicted = 2 * (ur @ (sv * z)) + (sv * z) @ (sv * z)  # by the J'J model
            bend = step @ sec @ step  # what S adds to that prediction
            if change < 0:  # Nielsen's update from the gain ratio of the model used
                model = predicted + bend * secant
                gain = change / model if model < change else 1.0
                lam *= max(1 / 3, 1 - (2 * gain - 1) ** 3)
            secant = abs(change - predicted - bend) < abs(change - predicted)
            sec = _secant_update(sec, step, jtr_c - jac.T @ r_c, jtr_c - jtr)
            theta, r, jac, jtr, q = cand, r_c, jac_c, jtr_c, float(r_c @ r_c)
            jtr_norm = np.linalg.norm(jtr)
            trace.append(q)
            sr_trace.append(sr_cand)
        norm = float(2 * jtr_norm)
        if norm <= tol:
            message = "gradient norm below tolerance"
        return theta, q, norm, trace, sr_trace, message

    theta, q, norm, trace, sr_trace, message = descend(1 - IOTA)
    if sr_trace[-1] >= 1 - 2 * IOTA:
        # Near the boundary S approaches singularity and Q loses its power to
        # discriminate, so weakly dependent data can show a spurious
        # maximal-dependence minimum; strong dependence costs more than 5%.
        capped = descend(0.5)
        if capped[1] <= 1.05 * q:
            theta, q, norm, trace, sr_trace, message = capped
            message += "; interior solution preferred over boundary minimum"
    return MsarFit(
        params=MsarParams(*_unpack(theta, k_y, k_x)),
        objective=q,
        grad_norm=norm,
        iterations=len(trace) - 1,
        converged=norm <= tol,
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

    The Schur form rho = Z T Z' (T upper triangular) hands the system to
    ``SpatialWeights.solve_lag``, which raises DivergenceError when it
    diverges. This is the Bartels-Stewart reduction (1972), backward stable
    for every rho, defective ones included. Z and T are real when rho's
    eigenvalues are, so every shifted solve runs in real arithmetic; a
    complex pair (a 2 x 2 block of the real Schur form) turns both complex
    (``rsf2csf``). rho = 0 returns a copy of C.
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
    t, z = linalg.schur(rho)
    if np.any(np.diag(t, -1)):
        t, z = linalg.rsf2csf(t, z)
    return weights.solve_lag(t, z, z.conj().T, c)
