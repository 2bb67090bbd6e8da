"""Plain-text formats for spaces, kernels, and random variables.

Line-oriented, whitespace-separated, one object per file or string:

    kernel
    mode rational
    domain 1/2 1/2
    codomain 3/4 1/4
    row 1 0
    row 1/2 1/2

Kinds: "space" (mode + weights), "rv" (mode + weights + values), "vecrv"
(mode + weights + one vec line per outcome), "kernel" (as above). Rational
numbers are written num/den and round-trip bit-exactly; floats are written
with repr and round-trip exactly as doubles. Lines starting with '#' and
blank lines are ignored.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigParseError
from .kernels import Kernel
from .numerics import NumericMode, Rationals, float_mode, rational_mode
from .spaces import ProbSpace, RandomVar, VecRandomVar


def fmt_number(x, mode: NumericMode) -> str:
    if mode.exact:
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def parse_number(token: str, mode: NumericMode):
    try:
        if mode.exact:
            return Fraction(token)
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigParseError(f"bad number {token!r}: {exc}") from None


def _parse_vector(tokens: list[str], mode: NumericMode):
    """Numbers of one line: `Rationals` in rational mode, floats otherwise.

    Integer and num/den tokens are read as integers; any other rational
    spelling goes through `Fraction`.
    """
    if not mode.exact:
        return [parse_number(t, mode) for t in tokens]
    nums, dens = [], []
    for token in tokens:
        top, slash, bottom = token.partition("/")
        try:
            if slash and not bottom[:1].isdigit():
                raise ValueError  # no sign on a denominator, as in Fraction
            num, den = int(top), int(bottom) if slash else 1
            if den == 0:
                raise ValueError
        except ValueError:
            value = parse_number(token, mode)
            num, den = value.numerator, value.denominator
        nums.append(num)
        dens.append(den)
    return Rationals.from_ints(nums, dens)


def _fmt_mode(mode: NumericMode) -> str:
    if mode.exact:
        return "mode rational"
    return f"mode float {mode.tolerance!r}"


def _parse_mode(tokens: list[str]) -> NumericMode:
    if tokens == ["rational"]:
        return rational_mode()
    if tokens and tokens[0] == "float":
        tol = float(tokens[1]) if len(tokens) > 1 else 1e-9
        return float_mode(tol)
    raise ConfigParseError(f"bad mode line: {' '.join(tokens)!r}")


def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line.split())
    return out


def _take(lines: list[list[str]], key: str) -> list[str]:
    if not lines or lines[0][0] != key:
        found = lines[0][0] if lines else "end of input"
        raise ConfigParseError(f"expected {key!r}, found {found!r}")
    return lines.pop(0)[1:]


def dumps_space(space: ProbSpace) -> str:
    mode = space.mode
    weights = " ".join(fmt_number(w, mode) for w in space.weights)
    return f"space\n{_fmt_mode(mode)}\nweights {weights}\n"


def loads_space(text: str) -> ProbSpace:
    lines = _lines(text)
    _take(lines, "space")
    mode = _parse_mode(_take(lines, "mode"))
    return ProbSpace(_parse_vector(_take(lines, "weights"), mode), mode)


def dumps_rv(rv: RandomVar) -> str:
    """The "rv" document of a real-valued RV, or the "vecrv" one of an R^d-valued RV."""
    mode = rv.space.mode
    weights = " ".join(fmt_number(w, mode) for w in rv.space.weights)
    if rv.dim is None:
        values = " ".join(fmt_number(v, mode) for v in rv.values)
        return f"rv\n{_fmt_mode(mode)}\nweights {weights}\nvalues {values}\n"
    body = "".join("vec " + " ".join(fmt_number(v, mode) for v in row) + "\n" for row in rv.values)
    return f"vecrv\n{_fmt_mode(mode)}\nweights {weights}\n{body}"


def loads_rv(text: str) -> RandomVar:
    """An "rv" or a "vecrv" document."""
    lines = _lines(text)
    kind = "vecrv" if lines and lines[0][0] == "vecrv" else "rv"
    _take(lines, kind)
    mode = _parse_mode(_take(lines, "mode"))
    space = ProbSpace(_parse_vector(_take(lines, "weights"), mode), mode)
    if kind == "rv":
        return RandomVar(_parse_vector(_take(lines, "values"), mode), space)
    rows = []
    while lines and lines[0][0] == "vec":
        rows.append([parse_number(t, mode) for t in _take(lines, "vec")])
    return VecRandomVar(rows, space)


def dumps_vec_rv(rv: RandomVar) -> str:
    return dumps_rv(rv)


def loads_vec_rv(text: str) -> RandomVar:
    return loads_rv(text)


def dumps_kernel(k: Kernel) -> str:
    mode = k.mode
    dom = " ".join(fmt_number(w, mode) for w in k.domain.weights)
    cod = " ".join(fmt_number(w, mode) for w in k.codomain.weights)
    body = "\n".join(
        "row " + " ".join(fmt_number(v, mode) for v in row) for row in k.rows
    )
    return f"kernel\n{_fmt_mode(mode)}\ndomain {dom}\ncodomain {cod}\n{body}\n"


def loads_kernel(text: str) -> Kernel:
    lines = _lines(text)
    _take(lines, "kernel")
    mode = _parse_mode(_take(lines, "mode"))
    dom = ProbSpace([parse_number(t, mode) for t in _take(lines, "domain")], mode)
    cod = ProbSpace([parse_number(t, mode) for t in _take(lines, "codomain")], mode)
    rows = []
    while lines and lines[0][0] == "row":
        rows.append([parse_number(t, mode) for t in _take(lines, "row")])
    return Kernel(rows, dom, cod)


def dump(obj, path) -> None:
    text = dumps(obj)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def dumps(obj) -> str:
    if isinstance(obj, Kernel):
        return dumps_kernel(obj)
    if isinstance(obj, RandomVar):
        return dumps_rv(obj)
    if isinstance(obj, ProbSpace):
        return dumps_space(obj)
    raise ConfigParseError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    lines = _lines(text)
    if not lines:
        raise ConfigParseError("empty document")
    kind = lines[0][0]
    loader = {
        "space": loads_space,
        "rv": loads_rv,
        "vecrv": loads_rv,
        "kernel": loads_kernel,
    }.get(kind)
    if loader is None:
        raise ConfigParseError(f"unknown document kind {kind!r}")
    return loader(text)


def load(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(
            f"{path}: not ascii text: byte {raw[exc.start]:#04x} at offset {exc.start}"
        ) from None
    return loads(text)
