"""Equiangular line systems from abelian covers.

From an abelian cover and a nontrivial character chi of its covering group K
one forms the n x n Hermitian signature matrix S: pick a base vertex per
fibre (minimum label), and for fibres F != F' set S[F, F'] = chi(k) where
k in K moves the matched partner of F's base vertex inside F' onto F''s base
vertex.  The spectrum of S is certified to be {theta, tau} of the cover by
the identity S^2 - (theta+tau)S + theta*tau*I = 0, which for a Hermitian,
non-scalar S holds exactly when its eigenvalues are theta and tau; tr S = 0
then fixes the multiplicities exactly.  Projecting onto one eigenspace and
rescaling to unit diagonal yields the Gram matrix of n equiangular unit
vectors meeting the relative bound (an equiangular tight frame), with
dimensions n - m_theta/(r-1) and n - m_tau/(r-1) on the two sides.

hermitian_jacobi is a standalone cyclic Jacobi eigensolver for Hermitian
matrices; nothing in the library calls it, and numpy's eigvalsh serves as
the independent oracle in the test suite.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import QuadExt
from .graphcore import CoverGraph, params_of
from .groupops import covering_group, fixes_fibres, kernel_info
from .params import CoverParams
from .perms import PermGroup, Permutation

JACOBI_DIM_BOUND = 512
DEFAULT_TOL = 1e-9


class FrameError(ValueError):
    pass


# -- characters of a small abelian group ---------------------------------------

@dataclass(frozen=True)
class Character:
    """A character of an abelian permutation group, with exact root angles.

    values maps each group element (image tuple) to a Fraction q meaning
    exp(2*pi*i*q); exactness keeps kernels and triviality decidable.
    """
    values: dict
    index: int

    def __call__(self, perm) -> complex:
        img = perm.img if isinstance(perm, Permutation) else tuple(perm)
        q = self.values[img]
        return cmath.exp(2j * cmath.pi * float(q))

    def angle(self, perm) -> Fraction:
        img = perm.img if isinstance(perm, Permutation) else tuple(perm)
        return self.values[img]

    @property
    def is_trivial(self) -> bool:
        return all(q == 0 for q in self.values.values())

    def kernel_images(self) -> list[tuple]:
        return sorted(img for img, q in self.values.items() if q == 0)

    @property
    def is_faithful(self) -> bool:
        return len(self.kernel_images()) == 1


def _abelian_basis(elements: list[Permutation]) -> list[Permutation]:
    """Independent generators with |group| = product of their orders.

    Backtracking over elements in (order desc, image) order; guaranteed to
    exist by the structure theorem.  Intended for tiny groups (|K| <= 16).
    """
    ident = next(e for e in elements if e.is_identity())
    target = len(elements)
    pool = sorted((e for e in elements if not e.is_identity()),
                  key=lambda e: (-e.order(), e.img))

    def span(basis) -> set:
        out = {ident.img}
        for b in basis:
            powers = []
            cur = b
            while not cur.is_identity():
                powers.append(cur)
                cur = cur * b
            new = set(out)
            for p in powers:
                for s in out:
                    new.add((Permutation(s) * p).img)
            out = new
        return out

    def extend(basis, spanned):
        if len(spanned) == target:
            return basis
        for e in pool:
            if e.img in spanned:
                continue
            if len(spanned) * e.order() > target:
                continue
            new_span = span(basis + [e])
            if len(new_span) == len(spanned) * e.order():
                got = extend(basis + [e], new_span)
                if got is not None:
                    return got
        return None

    basis = extend([], {ident.img})
    if basis is None:
        raise FrameError("group is not abelian or basis search failed")
    return basis


def all_characters(kernel: PermGroup) -> list[Character]:
    """Every character of an abelian group, deterministically ordered.

    The trivial character has index 0.
    """
    if not kernel.is_abelian():
        raise FrameError("covering group must be abelian")
    elements = list(kernel.elements())
    basis = _abelian_basis(elements)
    orders = [b.order() for b in basis]

    # exponent vector of each element, by enumerating all power tuples
    exponent: dict[tuple, tuple] = {}
    def rec(i, acc, vec):
        if i == len(basis):
            exponent.setdefault(acc.img, tuple(vec))
            return
        cur = acc
        for e in range(orders[i]):
            rec(i + 1, cur, vec + [e])
            cur = cur * basis[i]
    rec(0, Permutation.identity(kernel.degree), [])
    assert len(exponent) == len(elements)

    chars = []
    def rec_char(i, vec):
        if i == len(basis):
            values = {}
            for img, exps in exponent.items():
                q = sum(Fraction(v * e, d) for v, e, d in zip(vec, exps, orders))
                values[img] = q % 1
            chars.append(values)
            return
        for v in range(orders[i]):
            rec_char(i + 1, vec + [v])
    rec_char(0, [])
    if not basis:  # trivial group
        chars = [{Permutation.identity(kernel.degree).img: Fraction(0)}]
    chars.sort(key=lambda vals: sorted((img, q) for img, q in vals.items()))
    chars.sort(key=lambda vals: all(q == 0 for q in vals.values()), reverse=True)
    return [Character(values=v, index=i) for i, v in enumerate(chars)]


# -- signature matrix -----------------------------------------------------------

@dataclass
class CharacterMatrix:
    matrix: np.ndarray          # n x n complex Hermitian, zero diagonal
    base_vertices: tuple[int, ...]
    params: CoverParams
    eigenvalues: tuple          # certified: ((theta, mult), (tau, mult))
    max_eigen_residual: float
    trace_deviation: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def character_matrix(g: CoverGraph, chi: Character,
                     kernel: PermGroup | None = None,
                     base_vertices=None) -> CharacterMatrix:
    """Hermitian signature matrix of an abelian cover under a character.

    The cover's parameters come from the report verify_cover recorded on g
    (g is verified only when none is recorded).  The covering group is
    found by covering_group(g) when not supplied; a supplied kernel is not
    searched again: its generators must fix every fibre, and its order,
    abelianity and regularity are read from it directly.  Row i is read off
    the neighbours of base vertex i through a carrier table: for each vertex
    x, chi of the kernel element taking x to its fibre's base.  The spectrum
    is certified to be the cover's {theta, tau} by certify_two_eigenvalues
    (relative tolerance CERTIFICATE_TOL).
    """
    params = params_of(g)
    if kernel is None:
        kernel, info = covering_group(g)
    else:
        if not all(fixes_fibres(g, p) for p in kernel.generators):
            raise FrameError("kernel does not fix every fibre")
        info = kernel_info(g, kernel)
    if not info["abelian_cover"]:
        raise FrameError("cover is not abelian (kernel not abelian-regular)")
    if chi.is_trivial:
        raise FrameError("character must be nontrivial")

    n = g.n
    if base_vertices is None:
        bases = [f[0] for f in g.fibres]
    else:
        bases = list(base_vertices)
        if sorted(g.fibre_of[b] for b in bases) != list(range(n)):
            raise FrameError("need exactly one base vertex per fibre")
        bases = sorted(bases, key=lambda b: g.fibre_of[b])

    # carrier[x] = chi(k) for the first k in K with k(x) = base of x's fibre
    base_of = [bases[j] for j in g.fibre_of]
    carrier = [None] * g.v
    for k in kernel.elements():
        value = chi(k)
        for x, y in enumerate(k.img):
            if y == base_of[x] and carrier[x] is None:
                carrier[x] = value

    s = np.zeros((n, n), dtype=complex)
    for i, b in enumerate(bases):
        # the neighbours of base i are its matched partners in the other fibres
        for x in g.neighbours(b):
            if carrier[x] is None:
                raise FrameError("covering group is not transitive on a fibre")
            s[i, g.fibre_of[x]] = carrier[x]

    cert = certify_two_eigenvalues(s, params.theta, params.tau)
    return CharacterMatrix(matrix=s, base_vertices=tuple(bases),
                           params=params, eigenvalues=cert.eigenvalues,
                           max_eigen_residual=cert.residual,
                           trace_deviation=cert.trace)


# -- spectrum certificate --------------------------------------------------------

CERTIFICATE_TOL = 1e-10


class SpectrumCertificateError(FrameError):
    """A matrix failed the two-eigenvalue certificate; carries the witness."""

    def __init__(self, message: str, residual: float, m_theta):
        super().__init__(message)
        self.residual = residual
        self.m_theta = m_theta


@dataclass(frozen=True)
class SpectrumCertificate:
    eigenvalues: tuple      # ((theta, m_theta), (tau, m_tau)), largest first
    residual: float         # max|S^2 - (theta+tau)S + theta*tau*I| / scale^2
    trace: float            # |tr S|


def certify_two_eigenvalues(s: np.ndarray, theta: QuadExt,
                            tau: QuadExt) -> SpectrumCertificate:
    """Certify that s has exactly the two eigenvalues theta and tau.

    A Hermitian matrix is diagonalisable, so R = s^2 - (theta+tau)s +
    theta*tau*I vanishes exactly when every eigenvalue is theta or tau; a
    non-scalar s then has both.  With tr s = 0 the multiplicities follow:
    m_theta = -n*tau/(theta - tau), evaluated exactly, which must be an
    integer in 1..n-1 (this also rules out a scalar s).  The residual
    max|R| / max(|theta|, |tau|, 1)^2, the Hermitian deviation and
    |tr s| / max(|theta|, |tau|, 1) must not exceed CERTIFICATE_TOL;
    otherwise SpectrumCertificateError is raised with the residual and
    m_theta.
    """
    n = s.shape[0]
    if s.shape != (n, n):
        raise FrameError("matrix must be square")
    if theta == tau:
        raise FrameError("theta and tau must differ")
    theta_f, tau_f = float(theta), float(tau)
    scale = max(abs(theta_f), abs(tau_f), 1.0)
    r = s @ s - (theta_f + tau_f) * s
    r[np.diag_indices(n)] += theta_f * tau_f
    residual = float(np.max(np.abs(r))) / scale ** 2
    hermitian = float(np.max(np.abs(s - s.conj().T)))
    trace = abs(complex(np.trace(s)))
    m_theta = -tau * n / (theta - tau)
    if (residual > CERTIFICATE_TOL or hermitian > CERTIFICATE_TOL
            or trace > CERTIFICATE_TOL * scale
            or not (m_theta.is_integer and 0 < m_theta < n)):
        raise SpectrumCertificateError(
            f"spectrum not certified against theta={theta_f}, tau={tau_f}: "
            f"residual {residual:.3g}, hermitian deviation {hermitian:.3g}, "
            f"|tr S| {trace:.3g}, m_theta {m_theta} (n = {n})",
            residual, m_theta)
    m = int(m_theta)
    eigenvalues = tuple(sorted(((theta_f, m), (tau_f, n - m)),
                               key=lambda c: -c[0]))
    return SpectrumCertificate(eigenvalues=eigenvalues, residual=residual,
                               trace=trace)


# -- Hermitian Jacobi eigensolver ------------------------------------------------

def hermitian_jacobi(a: np.ndarray, threshold: float = 1e-13,
                     max_sweeps: int = 60):
    """Eigenvalues and eigenvectors of a Hermitian matrix by cyclic Jacobi.

    Sweeps annihilate off-diagonal entries with complex rotations until the
    off-diagonal Frobenius norm falls below threshold * ||A||_F.  Returns
    (eigenvalues array, column eigenvector matrix).
    """
    n = a.shape[0]
    if a.shape != (n, n):
        raise FrameError("matrix must be square")
    if n > JACOBI_DIM_BOUND:
        raise FrameError(f"dimension {n} exceeds bound {JACOBI_DIM_BOUND}")
    w = np.array(a, dtype=complex)
    if not np.allclose(w, w.conj().T, atol=1e-12):
        raise FrameError("matrix is not Hermitian")
    v = np.eye(n, dtype=complex)
    norm = max(float(np.linalg.norm(w)), 1.0)

    for _ in range(max_sweeps):
        off = math.sqrt(max(float(np.sum(np.abs(w) ** 2)
                                  - np.sum(np.abs(np.diag(w)) ** 2)), 0.0))
        if off <= threshold * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if abs(apq) <= threshold * norm / max(n, 1):
                    continue
                app = w[p, p].real
                aqq = w[q, q].real
                phase = apq / abs(apq)
                diff = aqq - app
                theta = 0.5 * math.atan2(2.0 * abs(apq), diff)
                c = math.cos(theta)
                s_val = math.sin(theta)
                # unitary rotation in the (p, q) plane with complex phase
                col_p = w[:, p].copy()
                col_q = w[:, q].copy()
                w[:, p] = c * col_p - s_val * np.conj(phase) * col_q
                w[:, q] = s_val * phase * col_p + c * col_q
                row_p = w[p, :].copy()
                row_q = w[q, :].copy()
                w[p, :] = c * row_p - s_val * phase * row_q
                w[q, :] = s_val * np.conj(phase) * row_p + c * row_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s_val * np.conj(phase) * vq
                v[:, q] = s_val * phase * vp + c * vq
    evals = np.real(np.diag(w))
    return evals, v


# -- line systems ----------------------------------------------------------------

@dataclass
class LineSystem:
    dimension: int
    gram: np.ndarray
    common_angle: float
    side: str
    certificates: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def to_json(self) -> dict:
        return {
            "d": self.dimension, "n": self.n, "alpha": self.common_angle,
            "side": self.side,
            "gram": [[{"re": z.real, "im": z.imag} for z in row]
                     for row in self.gram],
            "certificates": self.certificates,
        }


def extract_lines(s: CharacterMatrix, side: str,
                  tol: float = DEFAULT_TOL) -> LineSystem:
    """Unit-diagonal Gram of the projection onto one certified eigenspace.

    side selects which eigenvalue's eigenspace is kept: 'tau' gives
    dimension = multiplicity of tau in S, 'theta' the other.  For the
    two-eigenvalue S the projector is (S - other I)/(kept - other), which has
    constant diagonal -other/(kept - other); rescaling gives G = I - S/other.
    """
    if side not in ("theta", "tau"):
        raise FrameError("side must be 'theta' or 'tau'")
    (th, m_th), (ta, m_ta) = s.eigenvalues
    kept, other, dim = ((ta, th, m_ta) if side == "tau" else (th, ta, m_th))
    gram = np.eye(s.n, dtype=complex) - s.matrix / other
    alpha = float(np.mean(np.abs(gram[~np.eye(s.n, dtype=bool)])))
    ls = LineSystem(dimension=dim, gram=gram, common_angle=alpha, side=side)
    ls.certificates = verify_etf(ls, tol=tol, source_params=s.params)
    return ls


def verify_etf(lines: LineSystem, tol: float = DEFAULT_TOL,
               source_params: CoverParams | None = None) -> dict:
    """Certificate report for a line system; pure report, never raises.

    Checks equiangularity, the tight-frame identity G^2 = (n/d) G, equality
    in the relative bound n = d(1 - a^2)/(1 - d a^2), the complex absolute
    bound n = d^2 (SIC size) and the real one n = d(d+1)/2, and, when cover
    parameters are supplied, whether tau sits at an extremal endpoint of the
    applicable absolute-bound inequality.
    """
    g = lines.gram
    n, d = lines.n, lines.dimension
    alpha = lines.common_angle
    off = g[~np.eye(n, dtype=bool)]

    diag_dev = float(np.max(np.abs(np.diag(g) - 1.0)))
    equi_dev = float(np.max(np.abs(np.abs(off) - alpha))) if off.size else 0.0
    tight_dev = float(np.max(np.abs(g @ g - (n / d) * g)))
    herm_dev = float(np.max(np.abs(g - g.conj().T)))

    if abs(d * alpha ** 2 - 1.0) > 1e-15:
        rel_n = d * (1.0 - alpha ** 2) / (1.0 - d * alpha ** 2)
        rel_dev = abs(rel_n - n)
    else:
        rel_dev = float("inf")
    real_gram = float(np.max(np.abs(g.imag))) <= tol

    report = {
        "tol": tol,
        "unit_diagonal_deviation": diag_dev,
        "equiangular": equi_dev <= tol,
        "equiangular_deviation": equi_dev,
        "hermitian_deviation": herm_dev,
        "tight": tight_dev <= tol,
        "tightness_deviation": tight_dev,
        "relative_bound_equality": rel_dev <= tol * max(n, 1),
        "relative_bound_deviation": rel_dev,
        "sic": n == d * d,
        "real_gram": real_gram,
        "real_absolute_bound_attained": real_gram and 2 * n == d * (d + 1),
        "absolute_bound_attained": (n == d * d
                                    or (real_gram and 2 * n == d * (d + 1))),
        "alpha": alpha,
    }

    if source_params is not None:
        p = source_params
        tau = float(p.tau)
        sn = math.sqrt(p.n)
        if p.r % 2 == 1:
            lo = -(sn - 1.0) * math.sqrt(sn + 1.0)
            hi = -math.sqrt(sn + 1.0)
            kind = "odd-r"
        else:
            root = math.sqrt(8.0 * p.n + 1.0)
            lo = -0.5 * math.sqrt((p.n - 1.0) * (root - 3.0))
            hi = -math.sqrt(0.5 * (root + 3.0))
            kind = "even-r"
        end = None
        if abs(tau - hi) <= tol * max(abs(hi), 1.0):
            end = "upper"
        elif abs(tau - lo) <= tol * max(abs(lo), 1.0):
            end = "lower"
        report["absolute_bound_kind"] = kind
        report["tau_extremal_endpoint"] = end
    return report


def lines_from_cover(g: CoverGraph, char_index: int = 1, side: str = "tau",
                     tol: float = DEFAULT_TOL) -> LineSystem:
    """End-to-end helper: cover -> character -> signature matrix -> lines."""
    kernel, info = covering_group(g)
    if not info["abelian_cover"]:
        raise FrameError("cover is not abelian")
    chars = all_characters(kernel)
    if not 0 < char_index < len(chars):
        raise FrameError(f"character index must be in 1..{len(chars) - 1}")
    s = character_matrix(g, chars[char_index], kernel=kernel)
    return extract_lines(s, side, tol=tol)
