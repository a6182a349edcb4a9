"""From abelian covers to equiangular tight frames, in exact arithmetic.

Pick a base vertex per fibre and a nontrivial character of the covering
group.  The Hermitian signature matrix S has entries exp(2 pi i a/e), each
kept as its angle a in Z_e (-1 marks the zero diagonal), and an integer
identity on the angle layers certifies that its eigenvalues are theta and
tau.  Keeping one of them, G = I - S/other, with other the eigenvalue not
kept, is the Gram matrix of n equiangular unit vectors meeting the relative
bound, with |<v_i, v_j>|^2 = 1/other^2.  Every certificate is read off
that exact data.  The 27-vertex symplectic cover yields 9 lines in C^3
with |<v_i, v_j>|^2 = 1/4: a SIC-sized system (n = d^2).
"""
from fractions import Fraction

from coverlab import (all_characters, character_matrix, covering_group,
                      extract_lines, hexagon, thas_somma)


def show(lines):
    c = lines.certificates
    print(f"  d = {lines.dimension}, n = {lines.n}, e = {lines.e}, "
          f"other = {lines.other}, |<v_i, v_j>|^2 = 1/{lines.other ** 2}")
    print("  certificates:", ", ".join(f"{k} = {c[k]}" for k in sorted(c)))


print("Hexagon: 3 equiangular lines in R^2 (the real absolute bound)")
g = hexagon()
kernel, _ = covering_group(g)
s = character_matrix(g, all_characters(kernel)[1], kernel=kernel)
print("angle table of S:\n", s.angle)
print("certified eigenvalues:",
      ", ".join(f"{x} (x{m})" for x, m in s.eigenvalues))
show(extract_lines(s, "theta"))

print("\nSymplectic q=3 cover: 9 lines in C^3 (SIC size, n = d^2)")
g = thas_somma(3, 1)
kernel, _ = covering_group(g)
for chi in all_characters(kernel)[1:]:
    s = character_matrix(g, chi, kernel=kernel)
    print(f"character {chi.index}, angle table of S:\n", s.angle)
    show(extract_lines(s, "tau"))

print("\nThe companion system from the other eigenspace:")
s = character_matrix(g, all_characters(kernel)[1], kernel=kernel)
other = extract_lines(s, "theta")
show(other)
n, d = other.n, other.dimension
print(f"  tight-frame angle (n-d)/(d(n-1)) = {Fraction(n - d, d * (n - 1))}")
