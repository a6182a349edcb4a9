"""Equiangular line systems from abelian covers.

The characters of the abelian covering group K are built by extension along
its generators: if m is the least power with g^m in a subgroup H, each
character of H extends to <H, g> in exactly m = [<H, g> : H] ways.  K is
covering_group's record on the graph, found and checked once per cover.

From an abelian cover and a nontrivial character chi of K one forms the
n x n Hermitian signature matrix S: pick a base vertex per fibre (minimum
label), and for fibres F != F' set S[F, F'] = chi(k) where
k in K moves the matched partner of F's base vertex inside F' onto F''s base
vertex.  Each entry is kept as an exact angle a in Z_e, chi(k) =
exp(2 pi i a/e), and an integer identity on the 0/1 angle layers certifies
the spectrum {theta, tau} with a witness.  Projecting onto one eigenspace and
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

from .exact import is_integral
from .graphcore import CoverGraph, params_of
from .groupops import covering_group
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


def all_characters(kernel: PermGroup) -> list[Character]:
    """Every character of an abelian group, deterministically ordered.

    Built by extension along the generators: if m is the least power with
    g^m in H, every element of <H, g> is h*g^e for exactly one h in H and
    0 <= e < m, and a character chi of H extends to <H, g> in exactly m
    ways, chi(h*g^e) = chi(h) + e*(chi(g^m) + j)/m mod 1 for j = 0..m-1.
    The trivial character has index 0.
    """
    if not kernel.is_abelian():
        raise FrameError("covering group must be abelian")
    elements = [Permutation.identity(kernel.degree)]
    chars = [{elements[0].img: Fraction(0)}]
    # chars[0] stays the trivial character, so its keys are the elements of H
    for g in kernel.generators:
        if g.img in chars[0]:
            continue
        power, m = g, 1
        while power.img not in chars[0]:
            power, m = power * g, m + 1
        layers = [elements]
        for _ in range(m - 1):
            layers.append([x * g for x in layers[-1]])
        chars = [{x.img: (chi[h.img] + e * (chi[power.img] + j) / m) % 1
                  for e, layer in enumerate(layers)
                  for h, x in zip(elements, layer)}
                 for chi in chars for j in range(m)]
        elements = [x for layer in layers for x in layer]
    chars.sort(key=lambda vals: sorted((img, q) for img, q in vals.items()))
    chars.sort(key=lambda vals: all(q == 0 for q in vals.values()), reverse=True)
    return [Character(values=v, index=i) for i, v in enumerate(chars)]


# -- signature matrix -----------------------------------------------------------

@dataclass
class CharacterMatrix:
    matrix: np.ndarray          # n x n complex Hermitian, zero diagonal
    angle: np.ndarray           # matrix = exp(2 pi i angle/e); -1 marks 0
    e: int                      # order of chi's image
    base_vertices: tuple[int, ...]
    params: CoverParams
    eigenvalues: tuple          # certified: ((theta, mult), (tau, mult))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def character_matrix(g: CoverGraph, chi: Character,
                     kernel: PermGroup | None = None,
                     base_vertices=None) -> CharacterMatrix:
    """Hermitian signature matrix of an abelian cover under a character.

    The cover's parameters come from the report verify_cover recorded on g
    (g is verified only when none is recorded), K and its info from
    covering_group(g).  A supplied kernel must be K: same order, and its
    generators in K.  Row i is read off the arcs at base vertex i, one
    selection of g's edge array, through a carrier table: for each vertex
    x, the angle a in Z_e of chi at the p in K taking x to its fibre's
    base (e the lcm of chi's angle denominators).  S is exp(2 pi i a/e)
    entrywise, on an angle table certify_two_eigenvalues certifies.
    """
    params = params_of(g)
    k, info = covering_group(g)
    if kernel is not None and (kernel.order() != info["order"] or
                               not all(p in k for p in kernel.generators)):
        raise FrameError("kernel is not the covering group, which must "
                         "fix every fibre")
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

    # carrier[x] = e*angle(chi, p) for the one p in K taking x to its base
    # (abelian_cover holds, so K is regular on every fibre)
    e = math.lcm(*(q.denominator for q in chi.values.values()))
    fibre = np.array(g.fibre_of)
    base_of = np.array(bases)[fibre]
    carrier = np.full(g.v, -1)
    for p in k.elements():
        carrier[np.array(p.img) == base_of] = int(chi.angle(p) * e)

    # the arcs (b, x) out of the bases: x is b's partner in x's fibre
    row = np.full(g.v, -1)
    row[bases] = np.arange(n)
    arcs = np.concatenate([g._pairs, g._pairs[:, ::-1]])
    b, x = arcs[row[arcs[:, 0]] >= 0].T
    angle = np.full((n, n), -1)
    angle[row[b], fibre[x]] = carrier[x]

    cert = certify_two_eigenvalues(angle, e, params)
    roots = np.array([cmath.exp(2j * cmath.pi * float(Fraction(a, e)))
                      for a in range(e)] + [0])  # roots[-1] = 0
    return CharacterMatrix(matrix=roots[angle], angle=angle, e=e,
                           base_vertices=tuple(bases), params=params,
                           eigenvalues=cert.eigenvalues)


# -- spectrum certificate --------------------------------------------------------

class SpectrumCertificateError(FrameError):
    """A failed certificate, with its witness: an entry, or m_theta."""

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SpectrumCertificate:
    eigenvalues: tuple      # ((theta, m_theta), (tau, m_tau)), largest first


def certify_two_eigenvalues(angle: np.ndarray, e: int,
                            params: CoverParams) -> SpectrumCertificate:
    """Certify exactly that S = exp(2 pi i angle/e) (0 where angle is -1)
    has the eigenvalues theta and tau of params.  With C_a = [angle = a]:
    - C_{-a} = C_a^T and the diagonal is empty: S is Hermitian, tr S = 0;
    - for c in Z_e, sum over a + b = c of C_a C_b = (lam - mu) C_c
      + (n-1)[c = 0] I + (mu r/e)(J - I).  Every abelian cover satisfies it
      (a fibre has r/e vertices of each angle; the 2-paths from base i end
      lam times at i's neighbour in fibre j, mu times at each other one).
      Summed against zeta^c, since sum_c zeta^c = 0 for e >= 2, it gives
      S^2 = (lam - mu)S + (n-1)I: every eigenvalue is theta or tau;
    - theta's multiplicity m_theta/(r-1) in S is an integer in 1..n-1.
    One float64 (en x n)(n x en) product gives every C_a C_b, exactly, as
    no entry exceeds n - 1.  A failure raises SpectrumCertificateError.
    """
    if e < 2:
        raise FrameError("need e >= 2: sum_c zeta^c vanishes only then")
    n, a = len(angle), np.arange(e)
    eye = np.eye(n, dtype=bool)
    layers = angle == a[:, None, None]
    flipped = layers[-a % e].transpose(0, 2, 1)
    bad = np.argwhere((flipped != layers).any(axis=0) | (eye & (angle >= 0)))
    if bad.size:
        i, j = bad[0].tolist()
        raise SpectrumCertificateError(
            f"S is not Hermitian with zero diagonal at entry ({i}, {j})",
            entry=(i, j))

    flat = layers.astype(float)  # blocks[a, :, b, :] = C_a C_b
    blocks = (flat.reshape(e * n, n) @ np.hstack(flat)).reshape(e, n, e, n)
    got = blocks[a[:, None], :, (a - a[:, None]) % e, :].sum(axis=0)
    want = (params.lam - params.mu) * layers + params.mu * params.r / e * ~eye
    want[0] += (params.n - 1) * eye
    bad = np.argwhere(got != want)
    if bad.size:
        c, i, j = bad[0].tolist()
        raise SpectrumCertificateError(
            f"layer identity fails at entry ({i}, {j}), power {c}: "
            f"got {got[c, i, j]:g}, want {want[c, i, j]:g}",
            entry=(i, j), power=c, got=int(got[c, i, j]),
            want=float(want[c, i, j]))

    m_theta = params.m_theta * Fraction(1, params.r - 1)
    if not (is_integral(m_theta) and 0 < m_theta < n):
        raise SpectrumCertificateError(f"m_theta {m_theta} is not an integer "
                                       f"in 1..{n - 1}", m_theta=m_theta)
    m = int(m_theta)
    return SpectrumCertificate(eigenvalues=((float(params.theta), m),
                                            (float(params.tau), n - m)))


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
    applicable absolute-bound inequality.  tol governs the float deviations;
    the endpoint is decided exactly, by _tau_endpoint.
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
        kind, end = _tau_endpoint(source_params)
        report["absolute_bound_kind"] = kind
        report["tau_extremal_endpoint"] = end
    return report


def _tau_endpoint(p: CoverParams) -> tuple[str, str | None]:
    """The absolute bound that applies to p, and the endpoint tau sits at.

    With T = tau^2 and s = sqrt(n) for odd r: tau = -sqrt(s + 1) ("upper")
    when T - 1 = s, and tau = -(s - 1) sqrt(s + 1) ("lower") when
    T/(n-1) + 1 = s.  With s = sqrt(8n + 1) for even r: "upper" when
    2T - 3 = s, "lower" when 4T/(n-1) + 3 = s.  A side x equals s exactly
    when x >= 0 and x^2 = s^2, decided in QuadExt with no float and no tol.
    """
    t2, inv = p.tau * p.tau, Fraction(1, p.n - 1)
    if p.r % 2 == 1:
        kind, s2, sides = "odd-r", p.n, (t2 - 1, t2 * inv + 1)
    else:
        kind, s2, sides = "even-r", 8 * p.n + 1, (2 * t2 - 3, 4 * t2 * inv + 3)
    for end, x in zip(("upper", "lower"), sides):
        if x >= 0 and x * x == s2:
            return kind, end
    return kind, None


def lines_from_cover(g: CoverGraph, char_index: int = 1, side: str = "tau",
                     tol: float = DEFAULT_TOL) -> LineSystem:
    """End-to-end helper: cover -> character -> signature matrix -> lines."""
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)
    if not 0 < char_index < len(chars):
        raise FrameError(f"character index must be in 1..{len(chars) - 1}")
    s = character_matrix(g, chars[char_index], kernel=kernel)
    return extract_lines(s, side, tol=tol)
