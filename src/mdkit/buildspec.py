"""Build-spec strings: the little language naming modular data sets.

Grammar::

    spec := "preset:" name | "su2:" k | "double:" group
          | "tdouble:" n ":" p | "pointed:" file
          | "prod(" spec "," spec ")" | "rev(" spec ")"
          | path-to-json

Specs round-trip: parse_spec(render(x)) == x.  Parse errors carry the
byte offset and the token set that would have been accepted there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecParseError, UnknownPresetError
from .constructors import (PRESETS, drinfeld_double, pointed, preset,
                           su2_level, twisted_double_cyclic)
from .groups import GROUP_PRESETS
from .modular_data import ModularData, deligne_product, reverse
from .numeric import checked_eps, default_eps
from .serialize import (_slurp, load_modular_data, load_pointed_doc,
                        resolve_group)

__all__ = [
    "BuildSpec", "Preset", "Su2", "Double", "TDouble", "Pointed", "Prod",
    "Rev", "File", "parse_spec", "render", "evaluate",
]


@dataclass(frozen=True)
class BuildSpec:
    pass


@dataclass(frozen=True)
class Preset(BuildSpec):
    name: str


@dataclass(frozen=True)
class Su2(BuildSpec):
    k: int


@dataclass(frozen=True)
class Double(BuildSpec):
    group: str


@dataclass(frozen=True)
class TDouble(BuildSpec):
    n: int
    p: int


@dataclass(frozen=True)
class Pointed(BuildSpec):
    path: str


@dataclass(frozen=True)
class Prod(BuildSpec):
    left: BuildSpec
    right: BuildSpec


@dataclass(frozen=True)
class Rev(BuildSpec):
    inner: BuildSpec


@dataclass(frozen=True)
class File(BuildSpec):
    path: str


_PREFIXES = ("preset:", "su2:", "double:", "tdouble:", "pointed:",
             "prod(", "rev(")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, expected):
        raise SpecParseError(
            f"cannot parse build spec at byte {self.pos} "
            f"({self.text[self.pos:self.pos + 12]!r}...): expected "
            f"{', '.join(expected)}",
            position=self.pos, expected=tuple(expected))

    def token(self):
        """Chars up to the next delimiter; may be empty."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",)":
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self, what: str, lo: int, hi: int):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail([f"{what} (integer)"])
        val = int(self.text[start:self.pos])
        if not lo <= val <= hi:
            self.pos = start
            self.fail([f"{what} in [{lo}, {hi}]"])
        return val

    def expect(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail([repr(ch)])
        self.pos += 1

    def spec(self) -> BuildSpec:
        t = self.text
        if t.startswith("prod(", self.pos):
            self.pos += len("prod(")
            left = self.spec()
            self.expect(",")
            right = self.spec()
            self.expect(")")
            return Prod(left, right)
        if t.startswith("rev(", self.pos):
            self.pos += len("rev(")
            inner = self.spec()
            self.expect(")")
            return Rev(inner)
        if t.startswith("preset:", self.pos):
            self.pos += len("preset:")
            name = self.token()
            if name not in PRESETS:
                raise UnknownPresetError(
                    f"unknown preset {name!r}; available: "
                    f"{', '.join(PRESETS)}", available=PRESETS)
            return Preset(name)
        if t.startswith("su2:", self.pos):
            self.pos += len("su2:")
            return Su2(self.integer("level k", 1, 32))
        if t.startswith("double:", self.pos):
            self.pos += len("double:")
            name = self.token()
            if not name:
                self.fail(["group preset name or file path"])
            return Double(name)
        if t.startswith("tdouble:", self.pos):
            self.pos += len("tdouble:")
            n = self.integer("n", 1, 12)
            self.expect(":")
            p = self.integer("p", 0, n - 1)
            return TDouble(n, p)
        if t.startswith("pointed:", self.pos):
            self.pos += len("pointed:")
            path = self.token()
            if not path:
                self.fail(["file path"])
            return Pointed(path)
        start = self.pos
        path = self.token()
        if not path:
            self.fail(list(_PREFIXES) + ["file path"])
        head = path.split("/", 1)[0]
        if ":" in head:
            self.pos = start
            self.fail(list(_PREFIXES))
        return File(path)


def parse_spec(text: str) -> BuildSpec:
    """Parse a build-spec string; see the module grammar."""
    parser = _Parser(text)
    node = parser.spec()
    if parser.pos != len(text):
        parser.fail(["end of input"])
    return node


def render(spec: BuildSpec) -> str:
    """Canonical string form; parse_spec(render(x)) == x."""
    if isinstance(spec, Preset):
        return f"preset:{spec.name}"
    if isinstance(spec, Su2):
        return f"su2:{spec.k}"
    if isinstance(spec, Double):
        return f"double:{spec.group}"
    if isinstance(spec, TDouble):
        return f"tdouble:{spec.n}:{spec.p}"
    if isinstance(spec, Pointed):
        return f"pointed:{spec.path}"
    if isinstance(spec, Prod):
        return f"prod({render(spec.left)},{render(spec.right)})"
    if isinstance(spec, Rev):
        return f"rev({render(spec.inner)})"
    if isinstance(spec, File):
        return spec.path
    raise TypeError(f"not a build spec: {spec!r}")


# (S, T, labels) of each leaf whose data depends on the spec text alone,
# keyed by (leaf, eps).  The arrays are read-only.  The grammar bounds the
# keys per eps: 6 presets, 32 SU(2) levels, 15 group doubles in two
# spellings and 78 twisted doubles.
_BUILT: dict[tuple[BuildSpec, float], tuple] = {}


def _built_in(spec: BuildSpec) -> bool:
    """Whether a leaf names data that no file can change."""
    if isinstance(spec, Double):
        return spec.group.removeprefix("preset:") in GROUP_PRESETS
    return isinstance(spec, (Preset, Su2, TDouble))


def evaluate(spec: BuildSpec, eps: float | None = None) -> ModularData:
    """Build the modular data a spec names.

    File lookups happen here, not at parse time, and files are read on
    every call.  Built-in leaves (presets, SU(2) levels, twisted doubles
    and doubles of preset groups) are constructed once per process and
    eps; each call still returns a new object, validated afresh (a
    product or reverse inherits the gate of its inputs).  `eps`
    becomes the tolerance of the result (a product takes the larger of its
    factors'), which every analysis of it reads; it must be a finite
    number > 0 (ToleranceError otherwise).  A file document is parsed
    here but, like every other leaf, validated at first use.
    """
    if eps is not None:
        eps = checked_eps(eps)
    if isinstance(spec, Prod):
        return deligne_product(evaluate(spec.left, eps=eps),
                               evaluate(spec.right, eps=eps))
    if isinstance(spec, Rev):
        return reverse(evaluate(spec.inner, eps=eps))
    if not _built_in(spec):
        return _build(spec, eps)
    # the eps is part of the key: construction checks against it too
    eps = default_eps() if eps is None else eps
    hit = _BUILT.get((spec, eps))
    if hit is None:
        md = _build(spec, eps)
        _BUILT[spec, eps] = md.S, md.T, md.labels
        return md
    S, T, labels = hit
    return ModularData(S, T, labels=labels, eps=eps)


def _build(spec: BuildSpec, eps: float | None) -> ModularData:
    """Construct one leaf from scratch."""
    if isinstance(spec, Preset):
        return preset(spec.name, eps=eps)
    if isinstance(spec, Su2):
        return su2_level(spec.k, eps=eps)
    if isinstance(spec, Double):
        return drinfeld_double(resolve_group(spec.group), eps=eps)
    if isinstance(spec, TDouble):
        return twisted_double_cyclic(spec.n, spec.p, eps=eps)
    if isinstance(spec, Pointed):
        group, q, labels = load_pointed_doc(_slurp(spec.path))
        return pointed(group, q, labels=labels, eps=eps)
    if isinstance(spec, File):
        return load_modular_data(_slurp(spec.path), eps=eps)
    raise TypeError(f"not a build spec: {spec!r}")
