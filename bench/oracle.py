"""Independent reference for the benchmark's correctness checks.

Works on plain ``(unit, pi, mask)`` bit triples and never imports the package
under test.  A triple stands for the rank-1 form <s^unit * pi^pi * L^mask>;
``m`` below is the unit bit of the class of -1, which is 1 exactly when
q = 3 mod 4.  Every invariant is one scan over the entries:

* rank parity and the signed discriminant are XOR sums, the latter twisted by
  [-1] when rank*(rank+1)/2 is odd;
* the Clifford (Hasse) class uses the orthogonal-sum law
  s(q + <a>) = s(q) + (disc q, a), carrying a running plain discriminant, with
  the biadditive symbol (x, pi) = quaternion class of x, (pi, pi) = (-1, pi)
  and pi-free symbols trivial;
* the canonical shape comes from the types (zero, even, odd) of the residue
  and the ramified component of the group-ring coordinates.

Forms are printed and parsed in the package's canonical concrete syntax, so
outputs can be compared as text.
"""

from __future__ import annotations

Triple = tuple[int, int, int]

# Shape names in the paper's listing order, by (residue type, ramified type).
SHAPES: tuple[tuple[str, str], ...] = (
    ("odd", "zero"),
    ("zero", "odd"),
    ("even", "zero"),
    ("odd", "odd"),
    ("zero", "even"),
    ("even", "odd"),
    ("odd", "even"),
    ("even", "even"),
)

PAPER_COUNTS = {1: (2, 2, 1, 4, 1, 2, 2, 1), 2: (4, 4, 3, 16, 3, 12, 12, 9)}


def minus_one(q: int) -> int:
    return 1 if q == 3 else 0


def sign_twist(rank: int, q: int) -> int:
    return ((rank * (rank + 1) // 2) & 1) & minus_one(q)


def neg(form: list[Triple], q: int) -> list[Triple]:
    m = minus_one(q)
    return [(u ^ m, e, mask) for u, e, mask in form]


def tensor(a: list[Triple], b: list[Triple]) -> list[Triple]:
    return [(u ^ v, e ^ f, l ^ k) for u, e, l in a for v, f, k in b]


def signed_disc(form: list[Triple], q: int) -> Triple:
    u = e = mask = 0
    for gu, ge, gl in form:
        u ^= gu
        e ^= ge
        mask ^= gl
    return u ^ sign_twist(len(form), q), e, mask


def clifford(form: list[Triple], q: int) -> tuple[int, int]:
    """Pairwise symbol sum as one scan with a running discriminant."""
    m = minus_one(q)
    du = de = dl = 0
    cu = cl = 0
    for v, f, k in form:
        cu ^= (f & du) ^ (de & v) ^ (de & f & m)
        if f:
            cl ^= dl
        if de:
            cl ^= k
        du ^= v
        de ^= f
        dl ^= k
    return cu, cl


def is_trivial(form: list[Triple], q: int) -> bool:
    return (
        len(form) % 2 == 0
        and signed_disc(form, q) == (0, 0, 0)
        and clifford(form, q) == (0, 0)
    )


def witt_equal(a: list[Triple], b: list[Triple], q: int) -> bool:
    return is_trivial(a + neg(b, q), q)


def residue_class(form: list[Triple], q: int) -> Triple:
    """(parity, disc unit, disc mask) of a form with its pi exponents dropped."""
    u, _, mask = signed_disc([(gu, 0, gl) for gu, _, gl in form], q)
    return len(form) % 2, u, mask


def group_ring(form: list[Triple], q: int) -> tuple[Triple, Triple]:
    return (
        residue_class([g for g in form if not g[1]], q),
        residue_class([g for g in form if g[1]], q),
    )


def component_type(cls: Triple) -> str:
    parity, u, mask = cls
    if parity:
        return "odd"
    return "even" if (u or mask) else "zero"


def shape(form: list[Triple], q: int) -> str:
    """Canonical shape name, e.g. ODD_EVEN, or ZERO."""
    a, b = group_ring(form, q)
    types = (component_type(a), component_type(b))
    return "ZERO" if types == ("zero", "zero") else shape_name(types)


def shape_name(types: tuple[str, str]) -> str:
    return f"{types[0]}_{types[1]}".upper()


def shape_template(types: tuple[str, str]) -> str:
    """The printed template: s*L fills the residue slot, t*pi*M the ramified one."""
    residue = {"zero": [], "odd": ["s*L"], "even": ["1", "s*L"]}[types[0]]
    ramified = {"zero": [], "odd": ["t*pi*M"], "even": ["pi", "t*pi*M"]}[types[1]]
    return "<" + ",".join(residue + ramified) + ">"


TEMPLATES = {shape_name(t): shape_template(t) for t in SHAPES} | {"ZERO": "ZERO"}


def census(r: int) -> dict[str, int]:
    """Closed-form class count per nontrivial shape at Picard rank r."""
    n = 1 << r
    per_type = {"zero": 1, "even": 2 * n - 1, "odd": 2 * n}
    return {shape_name(t): per_type[t[0]] * per_type[t[1]] for t in SHAPES}


def class_count(r: int) -> int:
    return 16 << (2 * r)


def ring_pairs(r: int) -> int:
    """Ordered pairs of classes, checked once for addition and once for product."""
    return class_count(r) ** 2


def relation_checks(r: int) -> int:
    """Two relations for every pair of unit classes and bundle classes."""
    return 2 * (2 << r) ** 2


def self_check() -> None:
    """Raise if the closed forms disagree with the paper's census counts."""
    for n, counts in PAPER_COUNTS.items():
        r = n.bit_length() - 1
        got = census(r)
        if tuple(got[shape_name(t)] for t in SHAPES) != counts:
            raise AssertionError(f"oracle census at n={n}: {got}")
        if sum(counts) + 1 != class_count(r):
            raise AssertionError(f"oracle class count at n={n}")
        if ring_pairs(r) != (16 * n * n) ** 2:
            raise AssertionError(f"oracle pair count at n={n}")
    # Hyperbolic planes are trivial and <1> is not, in both residue classes.
    for q in (1, 3):
        for g in ((0, 0, 0), (1, 1, 1), (0, 1, 2)):
            if not is_trivial([g] + neg([g], q), q) or is_trivial([g], q):
                raise AssertionError(f"oracle triviality at q={q}")


# -- concrete syntax ----------------------------------------------------------


def _lines(mask: int) -> list[str]:
    return [f"L{i + 1}" for i in range(mask.bit_length()) if (mask >> i) & 1]


def format_square_class(g: Triple) -> str:
    u, e, mask = g
    terms = (["s"] if u else []) + (["pi"] if e else []) + _lines(mask)
    return "*".join(terms) if terms else "1"


def format_form(form: list[Triple]) -> str:
    return "<" + ",".join(format_square_class(g) for g in form) + ">"


def format_brauer(cls: tuple[int, int]) -> str:
    return f"({format_square_class((cls[0], 0, cls[1]))}, pi)"


def format_residue(cls: Triple) -> str:
    parity, u, mask = cls
    return f"(parity {parity}, disc {format_square_class((u, 0, mask))})"


def format_group_ring(x: tuple[Triple, Triple]) -> str:
    return f"[{format_residue(x[0])} | pi: {format_residue(x[1])}]"


def parse_form(text: str) -> list[Triple]:
    """Parse canonical output such as <1,s*pi*L2>; raises ValueError otherwise."""
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError(f"not a form: {text!r}")
    body = text[1:-1]
    form = []
    for entry in body.split(",") if body else []:
        u = e = mask = 0
        for term in entry.split("*"):
            if term == "s":
                u ^= 1
            elif term == "pi":
                e ^= 1
            elif term.startswith("L") and term[1:].isdigit():
                mask ^= 1 << (int(term[1:]) - 1)
            elif term != "1":
                raise ValueError(f"bad term {term!r} in {text!r}")
        form.append((u, e, mask))
    return form
