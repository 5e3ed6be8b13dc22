"""Cost per entry of printing and parsing a form: the README table.

    python3 tools/measure_syntax.py
    python3 tools/measure_syntax.py --parent ../other-checkout

Times, on a random 4096-entry form at r = 2 and r = 16 (q = 3): str(), parse_form
of the text str() prints, parse_form of a spelling of the same form, and the
character-by-character parser on that spelling.  Each figure is the best of
101 rounds (of 10 for the character-by-character parser), divided by the
entry count, with the garbage collector off.  A spelling has 0-2 whitespace
characters (space, tab, newline, \\x1c) around every separator, signs, '1' terms
and zero-padded labels, as respell in tests/test_syntax.py writes them.  Then it
times the fixed cost of a call: the best of 101 rounds of 2000 calls on
each of a few short texts.

With --parent, the package under DIR/src is loaded too, under another name, and
each round times both versions in turn, taking turns at going first, as
tools/measure_suites.py does; its figures follow in brackets.  Every parse is
checked against the form it spells.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WHITESPACE = " \t\n\x1c"
ENTRIES = 4096
RANKS = (2, 16)
ROUNDS = 101
CURSOR_ROUNDS = 10
CALLS = 2000
SHORT_TEXTS = (
    "<>",
    "<1>",
    "<s*L1, -pi*L2*s, L1*L2, pi>",
    "<s * L1, pi * L2, s * pi, L1 * L2, s, pi * L1, s * L2 * pi, L1>",
)


def load(src: Path, name: str):
    """The package under src/wittcurve, imported as name."""
    init = src / "wittcurve" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def spell(packed: int, minus: int, rank: int, rng: random.Random) -> str:
    """A random spelling of one packed entry."""

    def ws() -> str:
        return "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(0, 2)))

    sign = rng.random() < 0.5
    packed ^= minus if sign else 0
    terms = ["s"] * (packed & 1) + ["pi"] * (packed >> 1 & 1)
    terms += [
        "L" + "0" * rng.randint(0, 2) + str(i + 1)
        for i in range(rank)
        if packed >> (i + 2) & 1
    ]
    terms += ["1"] * rng.randint(0 if terms else 1, 2)
    rng.shuffle(terms)
    entry = terms[0] + "".join(ws() + "*" + ws() + term for term in terms[1:])
    return ws() + ("-" + ws() if sign else "") + entry + ws()


class Version:
    """One copy of the package and the inputs built with it."""

    def __init__(self, package):
        syntax = importlib.import_module(package.__name__ + ".syntax")
        self.parse, self.cursor = syntax.parse_form, syntax._parse_with_cursor
        self.cases = {}
        for rank in RANKS:
            rng = random.Random(rank)
            cfg = package.CurveConfig(3, rank)
            packed = tuple(rng.getrandbits(rank + 2) for _ in range(ENTRIES))
            form = package.DiagonalForm._from_packed(cfg, packed)
            spelled = "<" + ",".join(
                spell(p, cfg.minus_one, rank, rng) for p in packed
            ) + ">"
            for text in (str(form), spelled):
                if self.parse(text, cfg) != form or self.cursor(text, cfg) != form:
                    raise SystemExit(f"{package.__name__}: a parse at r = {rank} is wrong")
            self.cases[rank] = cfg, form, spelled
        self.short_cfg = package.CurveConfig(3, 2)

    def rows(self) -> dict[str, tuple]:
        """Each row's name, call, rounds and the count its time is divided by."""
        rows = {}
        for rank, (cfg, form, spelled) in self.cases.items():
            printed = str(form)
            rows[f"str() r={rank}"] = (lambda f=form: str(f), None, ENTRIES)
            rows[f"printed r={rank}"] = (
                lambda t=printed, c=cfg: self.parse(t, c), None, ENTRIES
            )
            rows[f"spelled r={rank}"] = (
                lambda t=spelled, c=cfg: self.parse(t, c), None, ENTRIES
            )
            rows[f"cursor r={rank}"] = (
                lambda t=spelled, c=cfg: self.cursor(t, c), CURSOR_ROUNDS, ENTRIES
            )
        for text in SHORT_TEXTS:
            rows[text] = (
                lambda t=text, c=self.short_cfg: [self.parse(t, c) for _ in range(CALLS)],
                None,
                CALLS,
            )
        return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="a checkout to measure beside this one")
    args = parser.parse_args()

    versions = [Version(load(ROOT / "src", "wittcurve"))]
    if args.parent is not None:
        versions.append(Version(load(args.parent / "src", "wittcurve_parent")))
    rows = [version.rows() for version in versions]
    best = [dict.fromkeys(r, float("inf")) for r in rows]
    gc.disable()
    try:
        for i in range(ROUNDS):
            for name in rows[0]:
                for side in (0, 1)[: len(versions)][:: -1 if i % 2 else 1]:
                    call, rounds, count = rows[side][name]
                    if rounds is not None and i >= rounds:
                        continue
                    start = perf_counter()
                    call()
                    seconds = (perf_counter() - start) / count
                    best[side][name] = min(best[side][name], seconds)
    finally:
        gc.enable()

    def cell(name: str) -> str:
        text = f"{best[0][name] * 1e6:.2f} µs"
        if len(best) > 1:
            text += f" ({best[1][name] * 1e6:.2f})"
        return text

    print(f"Python {sys.version.split()[0]}, {ENTRIES} entries, best of {ROUNDS} rounds")
    print()
    print("| | `r = 2` | `r = 16` |")
    print("|---|---|---|")
    for head, label in (
        ("str()", "`str()`"),
        ("printed", "`parse_form` of the text `str()` prints"),
        ("spelled", "`parse_form` of the spelling"),
        ("cursor", "the character-by-character parser, same spelling"),
    ):
        print(f"| {label} | " + " | ".join(cell(f"{head} r={r}") for r in RANKS) + " |")
    print()
    print("| `parse_form` at `r = 2`, per call | |")
    print("|---|---|")
    for text in SHORT_TEXTS:
        print(f"| `{text!r}` | {cell(text)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
