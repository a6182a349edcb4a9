"""Equiangular line systems from abelian covers.

The characters of the abelian covering group K are built by extension along
its generators: if m is the least power with g^m in a subgroup H, each
character of H extends to <H, g> in exactly m = [<H, g> : H] ways.  The
extension runs in integer angles, a character of H being a row of integers
mod |H|, and each exact Fraction angle is built only when read.  K is
covering_group's record on the graph, found and checked once per cover.

From an abelian cover and a nontrivial character chi of K one forms the
n x n Hermitian signature matrix S_ij = chi(-W_ij), W = kernel_voltages(g)
in its gauge, each fibre's base vertex its minimum label: -W_ij moves base
i's neighbour in fibre j onto base j.  S is held only as its angle table:
each entry is an exact angle a in Z_e, chi(k) = exp(2 pi i a/e), and an
integer identity on the 0/1 angle layers certifies the spectrum {theta,
tau} with a witness.  Keeping one eigenvalue, G = I - S/other, with other
the eigenvalue not kept, is the Gram matrix of n equiangular unit vectors
meeting the relative bound (an equiangular tight frame), in dimension
n - m_theta/(r-1) or n - m_tau/(r-1).  A LineSystem keeps the certified S
it was read from and other, and its certificates are read off the spectrum
certificate in integer and QuadExt arithmetic, with no float.

hermitian_jacobi is a standalone cyclic Jacobi eigensolver for Hermitian
matrices; nothing in the library calls it, and numpy's eigvalsh serves as
the independent oracle in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .exact import is_integral, quad_json
from .graphcore import CoverGraph, SizeBoundExceeded, params_of
from .groupops import covering_group, kernel_images, kernel_voltages
from .params import CoverParams
from .perms import PermGroup, Permutation

JACOBI_DIM_BOUND = 512

# float32 holds every integer up to 2^24 exactly.  The partial sums of
# certify_two_eigenvalues' layer product reach n - 1, and it raises
# SizeBoundExceeded once n - 1 reaches this bound
FLOAT32_EXACT = 2 ** 24


class FrameError(ValueError):
    pass


# -- characters of a small abelian group ---------------------------------------

@dataclass(frozen=True)
class Character:
    """A character of an abelian permutation group G, with exact root angles.

    turns maps each group element (image tuple) to an integer t in
    Z_modulus, modulus = |G|, meaning exp(2*pi*i*t/modulus); values maps it
    to the Fraction t/modulus, built when first read.  Exactness keeps
    kernels and triviality decidable.
    """
    index: int
    turns: dict
    modulus: int

    @cached_property
    def values(self) -> dict:
        return {img: Fraction(t, self.modulus)
                for img, t in self.turns.items()}

    def angle(self, perm) -> Fraction:
        img = perm.img if isinstance(perm, Permutation) else tuple(perm)
        return self.values[img]

    @property
    def is_trivial(self) -> bool:
        return not any(self.turns.values())


def all_characters(kernel: PermGroup) -> list[Character]:
    """Every character of an abelian group, deterministically ordered.

    Built by extension along the generators: if m is the least power with
    g^m in H, every element of <H, g> is h*g^e for exactly one h in H and
    0 <= e < m, and a character chi of H extends to <H, g> in exactly m
    ways, chi(h*g^e) = chi(h) + e*(chi(g^m) + j)/m mod 1 for j = 0..m-1.
    The extension runs in integer angles: a character of H is a row of
    integers mod |H|, and the j-th extension takes t at h to
    m*t + e*(t' + j*|H|) mod m*|H| at h*g^e, t' its angle at g^m, and no
    Fraction is formed (see Character.values).  The characters are ordered
    by their angle rows over the elements in image order, so the trivial
    character, the zero row, has index 0.  The group is abelian exactly
    when each generator extended along commutes with those before it, as
    every other generator lies in the group they generate; FrameError is
    raised at the first that does not.
    """
    elements = [Permutation.identity(kernel.degree)]
    position = {elements[0].img: 0}  # the elements of H, by image
    rows = [[0]]  # each character of H: its angles over elements, mod |H|
    used = []  # the generators extended along so far; they generate H
    for g in kernel.generators:
        if g.img in position:
            continue
        if any((g * x).img != (x * g).img for x in used):
            raise FrameError("covering group must be abelian")
        used.append(g)
        power, m = g, 1
        while power.img not in position:
            power, m = power * g, m + 1
        layers = [elements]
        for _ in range(m - 1):
            layers.append([x * g for x in layers[-1]])
        size, at = len(elements), position[power.img]
        rows = [[(m * t + e * (row[at] + j * size)) % (m * size)
                 for e in range(m) for t in row]
                for row in rows for j in range(m)]
        elements = [x for layer in layers for x in layer]
        position = {x.img: i for i, x in enumerate(elements)}
    columns = [position[img] for img in sorted(position)]
    rows.sort(key=lambda row: [row[i] for i in columns])
    keys = [x.img for x in elements]
    return [Character(index=index, turns=dict(zip(keys, row)),
                      modulus=len(elements))
            for index, row in enumerate(rows)]


# -- signature matrix -----------------------------------------------------------

@dataclass
class CharacterMatrix:
    """A certified signature matrix S, held only as its angle table.

    S = exp(2 pi i angle/e) entrywise, 0 where angle is -1 (the diagonal);
    row and column i belong to fibre i, whose base vertex is its minimum
    label.
    """
    angle: np.ndarray           # n x n ints in Z_e, -1 on the diagonal
    e: int                      # order of chi's image
    base_vertices: tuple[int, ...]
    params: CoverParams
    eigenvalues: tuple          # certified: ((theta, mult), (tau, mult))

    @property
    def n(self) -> int:
        return len(self.angle)


def character_matrix(g: CoverGraph, chi: Character,
                     kernel: PermGroup | None = None) -> CharacterMatrix:
    """Hermitian signature matrix of an abelian cover under a character.

    The cover's parameters come from the report verify_cover recorded on g
    (g is verified only when none is recorded), K and its info from
    covering_group(g).  A supplied kernel must be K: same order, and its
    generators in K, and chi a character of K (FrameError otherwise).  The
    angle table of S_ij = chi(-W_ij), W = kernel_voltages(g), is one gather
    at W of chi's angles -a in Z_e (e the order of its image), -1 on the
    diagonal, with the eigenvalues certify_two_eigenvalues certifies on it.
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

    turns = [chi.turns.get(tuple(img)) for img in kernel_images(g).tolist()]
    if None in turns:
        raise FrameError("chi is not a character of g's covering group")
    step = math.gcd(chi.modulus, *turns)
    e = chi.modulus // step
    angle = (-np.array(turns) % chi.modulus // step)[kernel_voltages(g)]
    np.fill_diagonal(angle, -1)

    eigenvalues = certify_two_eigenvalues(angle, e, params)
    return CharacterMatrix(angle=angle, e=e,
                           base_vertices=tuple(f[0] for f in g.fibres),
                           params=params, eigenvalues=eigenvalues)


# -- spectrum certificate --------------------------------------------------------

class SpectrumCertificateError(FrameError):
    """A failed certificate, with its witness: an entry, or m_theta."""

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.witness = witness


def certify_two_eigenvalues(angle: np.ndarray, e: int,
                            params: CoverParams) -> tuple:
    """Certify exactly that S = exp(2 pi i angle/e) (0 where angle is -1)
    has the eigenvalues theta and tau of params, and return them with their
    multiplicities, ((theta, m_theta), (tau, m_tau)).  With C_a = [angle = a]:
    - C_{-a} = C_a^T, the diagonal is empty and every other entry is set:
      S is Hermitian, tr S = 0 and |S_ij| = 1 for i != j;
    - for c in Z_e, sum over a + b = c of C_a C_b = (lam - mu) C_c
      + (n-1)[c = 0] I + (mu r/e)(J - I).  Every abelian cover satisfies it
      (a fibre has r/e vertices of each angle; the 2-paths from base i end
      lam times at i's neighbour in fibre j, mu times at each other one).
      Summed against zeta^c, since sum_c zeta^c = 0 for e >= 2, it gives
      S^2 = (lam - mu)S + (n-1)I: every eigenvalue is theta or tau;
    - theta's multiplicity m_theta/(r-1) in S is an integer in 1..n-1.
    One float32 (en x n)(n x en) product gives every C_a C_b, exactly: a
    partial sum of entry (i, j) counts k != i with C_a[i, k] = C_b[k, j]
    = 1, so none exceeds n - 1, and SizeBoundExceeded is raised when n - 1
    reaches FLOAT32_EXACT.  A failure raises SpectrumCertificateError.
    """
    if e < 2:
        raise FrameError("need e >= 2: sum_c zeta^c vanishes only then")
    n, a = len(angle), np.arange(e)
    if n - 1 >= FLOAT32_EXACT:
        raise SizeBoundExceeded(f"layer products reach {n - 1} >= "
                                f"{FLOAT32_EXACT}, beyond exact float32 "
                                "arithmetic")
    eye = np.eye(n, dtype=bool)
    layers = angle == a[:, None, None]
    flipped = layers[-a % e].transpose(0, 2, 1)
    bad = np.argwhere((flipped != layers).any(axis=0) | (eye & (angle >= 0)))
    if bad.size:
        i, j = bad[0].tolist()
        raise SpectrumCertificateError(
            f"S is not Hermitian with zero diagonal at entry ({i}, {j})",
            entry=(i, j))
    bad = np.argwhere(~eye & (angle < 0))
    if bad.size:
        i, j = bad[0].tolist()
        raise SpectrumCertificateError(
            f"S has a zero off-diagonal entry at ({i}, {j})", entry=(i, j))

    flat = layers.astype(np.float32)  # blocks[a, :, b, :] = C_a C_b
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
    return (params.theta, m), (params.tau, n - m)


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
    """n equiangular lines from a certified signature matrix, in exact form.

    signature is the certified S the lines were read from, held as its
    angle table, and other the eigenvalue of S that is not kept, an int or
    a QuadExt; the Gram matrix of the lines is G = I - S/other, so every
    |<v_i, v_j>|^2 is 1/other^2.
    """
    dimension: int
    side: str
    signature: CharacterMatrix
    other: object
    certificates: dict = field(default_factory=dict)

    @property
    def e(self) -> int:
        return self.signature.e

    @property
    def angles(self) -> np.ndarray:
        return self.signature.angle

    @property
    def n(self) -> int:
        return self.signature.n

    def to_json(self) -> dict:
        return {"d": self.dimension, "n": self.n, "side": self.side,
                "e": self.e, "angles": self.angles.tolist(),
                "other": quad_json(self.other),
                "certificates": self.certificates}


def extract_lines(s: CharacterMatrix, side: str) -> LineSystem:
    """The lines of one certified eigenspace of S.

    side selects which eigenvalue's eigenspace is kept: 'tau' gives
    dimension = multiplicity of tau in S, 'theta' the other.  For the
    two-eigenvalue S the projector is (S - other I)/(kept - other), which has
    constant diagonal -other/(kept - other); rescaling gives G = I - S/other.
    """
    if side not in ("theta", "tau"):
        raise FrameError("side must be 'theta' or 'tau'")
    (th, m_th), (ta, m_ta) = s.eigenvalues
    other, dim = (th, m_ta) if side == "tau" else (ta, m_th)
    ls = LineSystem(dimension=dim, side=side, signature=s, other=other)
    ls.certificates = verify_etf(ls)
    return ls


def verify_etf(lines: LineSystem) -> dict:
    """Certificate report for a line system; pure report, never raises.

    Every value is exact, read off the signature certificate:
    - equiangular: every off-diagonal angle is set, so |G_ij| = 1/|other|;
    - tight: S has two eigenvalues and tr S = 0, which give G^2 = (n/d) G;
    - relative bound equality: with alpha^2 = 1/other^2, n = d(1 - alpha^2)/
      (1 - d alpha^2) is n(other^2 - d) = d(other^2 - 1) with other^2 > d,
      decided in QuadExt with no division;
    - real: some entry of S is non-real exactly when e > 2, as the angles
      of a connected cover generate Z_e;
    - the complex absolute bound n = d^2 (SIC size) and the real one
      n = d(d+1)/2, and whether the cover's tau, read off the signature's
      params, sits at an extremal endpoint of the applicable absolute-bound
      inequality, decided by _tau_endpoint.
    """
    n, d = lines.n, lines.dimension
    o2 = lines.other * lines.other
    real_gram = lines.e == 2
    real_bound = real_gram and 2 * n == d * (d + 1)
    kind, end = _tau_endpoint(lines.signature.params)
    return {
        "equiangular": bool(np.all(lines.angles[~np.eye(n, dtype=bool)]
                                   >= 0)),
        "tight": True,
        "relative_bound_equality": (o2 > d
                                    and n * (o2 - d) == d * (o2 - 1)),
        "sic": n == d * d,
        "real_gram": real_gram,
        "real_absolute_bound_attained": real_bound,
        "absolute_bound_attained": n == d * d or real_bound,
        "absolute_bound_kind": kind,
        "tau_extremal_endpoint": end,
    }


def _tau_endpoint(p: CoverParams) -> tuple[str, str | None]:
    """The absolute bound that applies to p, and the endpoint tau sits at.

    With T = tau^2 and s = sqrt(n) for odd r: tau = -sqrt(s + 1) ("upper")
    when T - 1 = s, and tau = -(s - 1) sqrt(s + 1) ("lower") when
    T/(n-1) + 1 = s.  With s = sqrt(8n + 1) for even r: "upper" when
    2T - 3 = s, "lower" when 4T/(n-1) + 3 = s.  A side x equals s exactly
    when x >= 0 and x^2 = s^2, decided in QuadExt with no float.
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


def lines_from_cover(g: CoverGraph, char_index: int = 1,
                     side: str = "tau") -> LineSystem:
    """End-to-end helper: cover -> character -> signature matrix -> lines."""
    kernel, _ = covering_group(g)
    chars = all_characters(kernel)
    if not 0 < char_index < len(chars):
        raise FrameError(f"character index must be in 1..{len(chars) - 1}")
    s = character_matrix(g, chars[char_index], kernel=kernel)
    return extract_lines(s, side)
