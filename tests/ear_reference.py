"""The ear checks on int lists: the test oracle for `friezes.ears._ears_pass`.

`ears_pass(p, first, last, counts, rows)` computes and checks what the ear
adds to the children a = first..last of an n-gon node of the sweep's ear
tree by the list kernel that the lane kernel replaced: one list
per family and inner corner t = 1..p − 2, with child a's entry between its
new corner x = a + t and the old vertex j at (a − first)·n + j, by (E2) of
the `friezes.verify` docstring, α·(row a + 1) + β·(row a), and the three
checks on those lists.  It reads only the lone p-gon's friezes
(`ears._FACES`) and the radicands from the package; its tables are its own.
"""

from __future__ import annotations

from operator import add, mul

from friezes.ears import _FACES
from friezes.exact import LAMBDA_RADICAND

# (p, n) -> `ear_table(p, n, children)` for the longest run yet
TABLES: dict = {}


def ear_table(p: int, n: int, children: int) -> tuple:
    """What the children a = 0..children − 1 of any n-gon node share, lists
    indexed by a·n + j for the old vertex j:

    * per family and inner corner t = 1..p − 2, the coefficients (α, β) of
      (E2) in C values: ℓ_t and ℓ_{p−1−t} of the face, times m where both
      factors of a radical product are surds; a coefficient that is the same
      for every entry is that int (`layout`);
    * per t, the dressing: p/2 where x = a + t is white and x − j even, else 1;
    * the flat indices, in the news of a run from child 0, of the row-2
      entries at the centres a and b = a + p − 1;
    * per family, the counts the ear adds at a and at b.
    """
    table = TABLES.get((p, n))
    if table is None or len(table[2]) < children:
        m, h = LAMBDA_RADICAND[p], p // 2
        faces = _FACES[p]
        inner = range(1, p - 1)
        coefs, gains = [], []
        for f, scale in ((0, m), (1, 1)):
            ear = [face[f] for face in faces]  # per colour of a: the ear's (matrix, counts)
            coefs.append([])
            # two surds meet in ℓ_t·e(b, j) at an even t, else in ℓ_{p−1−t}·e(a, j)
            for t in inner:
                at_b, at_a = (scale, 1) if t % 2 == 0 else (1, scale)
                alpha = [[matrix[0][t] * at for at in (1, at_b)] for matrix, _ in ear]
                beta = [[matrix[t][-1] * at for at in (at_a, 1)] for matrix, _ in ear]
                coefs[f].append((layout(alpha, n, children), layout(beta, n, children)))
            counts = [ear[a & 1][1] for a in range(children)]
            gains.append(([c[0] for c in counts], [c[-1] for c in counts]))
        table = TABLES[p, n] = (
            coefs,
            [layout([[h if (a + t) % 2 == 0 == (d + t) % 2 else 1 for d in (0, 1)]
                     for a in (0, 1)], n, children) for t in inner],
            [a * n + (a - 1) % n for a in range(children)],
            [a * n + (a + 2) % n for a in range(children)],
            gains,
        )
    return table


def layout(by_parity: list[list[int]], n: int, children: int) -> "int | list[int]":
    """A coefficient given per parity of a and of a − j, [a & 1][(a − j) & 1],
    laid out at a·n + j for the children a = 0..children − 1: the one int
    where all four parities agree, else the list."""
    (even_even, even_odd), (odd_even, odd_odd) = by_parity
    if even_even == even_odd == odd_even == odd_odd:
        return even_even
    half = n // 2  # every node has an even number of vertices
    two = [even_even, even_odd] * half + [odd_odd, odd_even] * half  # children 0 and 1
    return (two * (children // 2 + 1))[: children * n]


def ears_pass(p: int, first: int, last: int, counts: tuple, rows: tuple) -> tuple[list, bool]:
    """(news, passed) for the children a = first..last of a node with these
    counts and rows (rows 0..last + 1 per family, flat, entry (u, j) at
    u·n + j): news as lists, as described in the module docstring, and
    whether the three checks pass: the changed counts at the centres a and
    b are row 2 of their family's news, every radical entry is positive, and
    each integral list is its radical one dressed by p/2 where the new
    corner is white and the distance even.  A run of no children passes."""
    n, size = len(counts[0]), last + 1
    coefs, dressed, at_a, at_b, gains = ear_table(p, n, size)
    lo, hi = first * n, size * n
    at_a, at_b = [i - lo for i in at_a[first:size]], [i - lo for i in at_b[first:size]]
    news, passed = [], True
    for flat, family, count, (gain_a, gain_b) in zip(rows, coefs, counts, gains):
        ahead, behind = flat[lo + n : hi + n], flat[lo:hi]  # rows a + 1, rows a
        new = [list(map(add, scaled(alpha, ahead, lo, hi), scaled(beta, behind, lo, hi)))
               for alpha, beta in family]
        news.append(new)
        if passed:
            centres = [new[0][i] for i in at_a] + [new[-1][i] for i in at_b]
            changed = list(map(add, count[first:size], gain_a[first:]))
            changed += map(add, count[first + 1 : size + 1], gain_b[first:])
            passed = centres == changed
    radical, integral = news
    passed = passed and (first > last or min(map(min, radical)) > 0) and all(
        ints == list(map(mul, rad, dressing[lo:hi]))
        for rad, ints, dressing in zip(radical, integral, dressed)
    )
    return news, passed


def scaled(coef: "int | list[int]", entries: list[int], lo: int, hi: int) -> list[int]:
    """The entries times a coefficient of `ear_table`, its list read over lo..hi."""
    if type(coef) is int:
        return [coef * e for e in entries]
    return list(map(mul, coef[lo:hi], entries))
