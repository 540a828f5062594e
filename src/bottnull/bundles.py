"""Equivariant bundle expressions over the flag variety and their weight multisets.

Atoms: ``n`` (nilradical, weights -alpha), ``h`` (Cartan, weight 0 with
multiplicity rank), ``b = n + h``, ``q = g/b`` (weights +alpha), ``g = b + q``,
and ``L[c1,...,ck]`` (line with the given fundamental coordinates).  Operators:
``*`` tensor, ``+`` direct sum, ``^`` tensor power, ``wedge^k(...)`` and
``sym^k(...)`` with index-expansion semantics (binding precedence ^ > * > +).

Semantics keep only the weight multiset (filtration-graded data): every
evaluation is a map weight -> multiplicity with deterministic ordering.
``weights`` packs keys once per evaluation (one width from ``_bound``) and
unpacks only the result to tuples.
"""

from __future__ import annotations

import re
import sys
from math import comb
from typing import Callable, Iterator, Union

from ._kernels._pykernels import _convolve_packed, _packer
from ._record import Record
from .errors import ExprSyntaxError, InvalidWeight, SizeCapExceeded, UnknownAtom
from .rootsys import MAX_COORD_DIGITS, RootSystem, Weight

ATOMS = ("n", "h", "b", "g", "q")

# Most weight terms one evaluation may touch (see ``_Budget``); every command
# that evaluates an expression goes through ``weights``.
COST_CAP = 5_000_000

# Deepest nesting of parentheses and wedge/sym operands that ``parse``
# accepts, so that evaluating, hashing and printing a parsed tree never
# exhausts Python's recursion limit.
MAX_NESTING = 100


class Atom(Record):
    kind: str  # one of ATOMS


class Line(Record):
    coords: tuple[int, ...]


class Tensor(Record):
    factors: tuple["Expr", ...]


class Sum(Record):
    terms: tuple["Expr", ...]


class Power(Record):
    base: "Expr"
    exponent: int


class Wedge(Record):
    degree: int
    inner: "Expr"


class Sym(Record):
    degree: int
    inner: "Expr"


Expr = Union[Atom, Line, Tensor, Sum, Power, Wedge, Sym]

# The parser returns one shared node per atom, so comparing two parsed trees
# (a lookup in ``RootSystem.expr_memo``) finds their atoms identical.
_ATOM_NODES = {kind: Atom(kind) for kind in ATOMS}

_TOKEN = re.compile(r"(?P<int>-?\d+)|(?P<name>[A-Za-z]+)|(?P<sym>[-+*^()\[\],])")


class _Parser:
    """Recursive-descent parser for the expression grammar."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ExprSyntaxError("unexpected character", pos)
            assert m.lastgroup is not None
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}", pos)

    def parse(self) -> Expr:
        expr = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return expr

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek()[1] == "+":
            self.next()
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while self.peek()[1] == "*":
            self.next()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Tensor(tuple(factors))

    def factor(self) -> Expr:
        base = self.primary()
        if self.peek()[1] == "^":
            self.next()
            k = self.uint()
            return Power(base, k)
        return base

    def uint(self) -> int:
        kind, text, pos = self.next()
        value = _literal(text, pos) if kind == "int" else -1
        if value < 0:
            raise ExprSyntaxError("expected a non-negative integer", pos)
        return value

    def nested(self, pos: int) -> Expr:
        """The parenthesized operand of the ``(``, ``wedge`` or ``sym`` at
        ``pos``, one nesting level deeper than the current one."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", pos)
        self.depth += 1
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def primary(self) -> Expr:
        kind, text, pos = self.next()
        if text == "(":
            return self.nested(pos)
        if kind == "name":
            if text in ("wedge", "sym"):
                self.expect("^")
                k = self.uint()
                self.expect("(")
                inner = self.nested(pos)
                return Wedge(k, inner) if text == "wedge" else Sym(k, inner)
            if text == "L":
                self.expect("[")
                coords = [self.int_()]
                while self.peek()[1] == ",":
                    self.next()
                    coords.append(self.int_())
                self.expect("]")
                return Line(tuple(coords))
            if text in ATOMS:
                return _ATOM_NODES[text]
            raise UnknownAtom(text, pos)
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def int_(self) -> int:
        kind, text, pos = self.next()
        if kind != "int":
            raise ExprSyntaxError("expected an integer", pos)
        if len(text.lstrip("-")) > MAX_COORD_DIGITS:
            raise ExprSyntaxError(
                f"line coordinate has more than {MAX_COORD_DIGITS} digits", pos)
        return _literal(text, pos)


def _literal(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts from text
        raise ExprSyntaxError("integer literal is too long", pos) from None


def parse(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError/UnknownAtom with positions."""
    return _Parser(text).parse()


def unparse(expr: Expr) -> str:
    """Canonical text form; ``parse(unparse(e)) == e``."""
    return _unparse(expr, 0)


def _unparse(expr: Expr, level: int) -> str:
    # level: 0 sum context, 1 tensor context, 2 power-base context
    if isinstance(expr, Atom):
        return expr.kind
    if isinstance(expr, Line):
        return "L[" + ",".join(str(c) for c in expr.coords) + "]"
    if isinstance(expr, Wedge):
        return f"wedge^{expr.degree}(" + _unparse(expr.inner, 0) + ")"
    if isinstance(expr, Sym):
        return f"sym^{expr.degree}(" + _unparse(expr.inner, 0) + ")"
    if isinstance(expr, Power):
        return _unparse(expr.base, 2) + f"^{expr.exponent}"
    if isinstance(expr, Tensor):
        body = "*".join(_unparse(f, 1) for f in expr.factors)
        return f"({body})" if level >= 2 else body
    body = "+".join(_unparse(t, 0) for t in expr.terms)
    return f"({body})" if level >= 1 else body


class _WeightMap:
    """Immutable, zero-free weight -> integer map with deterministic ordering.

    Equal to a map of the same class or to a plain dict with the same
    entries; maps of different classes (weight multisets, G-modules keyed by
    highest weight) never compare equal.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict[Weight, int] | None = None):
        self._data = {w: c for w, c in (data or {}).items() if c != 0}

    def get(self, weight: Weight) -> int:
        return self._data.get(weight, 0)

    def support(self) -> frozenset[Weight]:
        return frozenset(self._data)

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self._data.items())

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {c}" for w, c in self.sorted_items())
        return f"{type(self).__name__}({{{inner}}})"


class WeightMultiset(_WeightMap):
    """Weight -> multiplicity map of a bundle or module."""

    __slots__ = ()

    @property
    def counts(self) -> dict[Weight, int]:
        return dict(self._data)

    @property
    def total_dim(self) -> int:
        return sum(self._data.values())

    def __iter__(self) -> Iterator[Weight]:
        return iter(self._data)


class _Budget:
    """Weight terms an evaluation has touched: convolution pairs, merged
    entries, graded-power layer entries.  Each step is charged from the
    sizes of its inputs before it runs."""

    __slots__ = ("spent",)

    def __init__(self):
        self.spent = 0

    def charge(self, terms: int, ahead: int = 0) -> None:
        """Charge one step; refuse it if it, plus ``ahead`` terms that the
        steps still to come must cost, would take the total past the cap."""
        self.spent += terms
        if self.spent + ahead > COST_CAP:
            raise SizeCapExceeded(
                f"expression evaluation exceeds the cost cap of {COST_CAP} "
                "weight terms")


def _graded_power(ws: dict, k: int, symmetric: bool, budget: _Budget) -> dict:
    """Index-expansion wedge/sym of a packed weight multiset via layered DP:
    layer d holds sums of d weights, taken in tuple order (``sorted`` on
    packed keys gives it)."""
    budget.charge(k + 1)
    layers: list[dict] = [{} for _ in range(k + 1)]
    layers[0][0] = 1
    items = sorted(ws.items())
    for t, (w, m) in enumerate(items):
        # This pass copies the layers and, for each j up to ``top`` (the
        # nonzero coefficients), loops over d reading layer d - j: at most
        # (top + 1) * per_read terms.  Layers only grow and top >= 1, so
        # every later pass is charged at least 2 * per_read.
        top = k if symmetric else min(k, m)
        per_read = sum(map(len, layers)) + k
        budget.charge((top + 1) * per_read,
                      ahead=2 * per_read * (len(items) - t - 1))
        new = [dict(layer) for layer in layers]
        for j in range(1, k + 1):
            coeff = comb(m + j - 1, j) if symmetric else comb(m, j)
            if coeff == 0:
                continue
            off = j * w
            for d in range(j, k + 1):
                src = layers[d - j]
                if not src:
                    continue
                tgt = new[d]
                get = tgt.get
                for key, c in src.items():
                    key += off
                    tgt[key] = get(key, 0) + c * coeff
        layers = new
    return layers[k]


def _eval(rs: RootSystem, expr: Expr, budget: _Budget, pack) -> dict:
    """Weight multiset of ``expr`` on keys packed by ``pack``; the packed
    zero weight is 0 and ``pack`` is linear, so -pack(w) packs -w."""
    if isinstance(expr, Atom):
        roots = [pack(r.fund_coords) for r in rs.positive_roots]
        q, n, h = dict.fromkeys(roots, 1), {-r: 1 for r in roots}, {0: rs.rank}
        return {"n": n, "h": h, "b": {**n, **h}, "q": q,
                "g": {**q, **n, **h}}[expr.kind]
    if isinstance(expr, Line):
        if len(expr.coords) != rs.rank:
            raise InvalidWeight(
                f"line weight has {len(expr.coords)} coordinates; rank is {rs.rank}")
        return {pack(expr.coords): 1}
    if isinstance(expr, Tensor):
        acc = _eval(rs, expr.factors[0], budget, pack)
        for f in expr.factors[1:]:
            factor = _eval(rs, f, budget, pack)
            budget.charge(1 + len(acc) * len(factor))
            acc = _convolve_packed(acc, factor)
        return acc
    if isinstance(expr, Sum):
        acc: dict = {}
        for t in expr.terms:
            term = _eval(rs, t, budget, pack)
            budget.charge(len(term))
            for w, c in term.items():
                acc[w] = acc.get(w, 0) + c
        return acc
    if isinstance(expr, Power):
        acc = {0: 1}
        base = _eval(rs, expr.base, budget, pack)
        budget.charge(expr.exponent)  # one convolution call per step
        # acc only grows, so every later step costs at least as much.
        for step in range(expr.exponent):
            pairs = len(acc) * len(base)
            budget.charge(pairs, ahead=pairs * (expr.exponent - step - 1))
            acc = _convolve_packed(acc, base)
        return acc
    # Wedge or Sym: ``_bound`` has refused any other node.
    return _graded_power(_eval(rs, expr.inner, budget, pack), expr.degree,
                         symmetric=isinstance(expr, Sym), budget=budget)


def _bound(rs: RootSystem, expr: Expr) -> int:
    """Bound on |coordinate| over the weights of ``expr`` and of each of its
    subexpressions, so one packed width serves a whole evaluation.  A zero
    exponent or degree still evaluates its operand, hence ``max(k, 1)``."""
    if isinstance(expr, Atom):
        return 0 if expr.kind == "h" else max(
            abs(c) for r in rs.positive_roots for c in r.fund_coords)
    if isinstance(expr, Line):
        return max(map(abs, expr.coords), default=0)
    if isinstance(expr, Tensor):
        return sum(_bound(rs, f) for f in expr.factors)
    if isinstance(expr, Sum):
        return max((_bound(rs, t) for t in expr.terms), default=0)
    if isinstance(expr, Power):
        return max(expr.exponent, 1) * _bound(rs, expr.base)
    if isinstance(expr, (Wedge, Sym)):
        return max(expr.degree, 1) * _bound(rs, expr.inner)
    raise TypeError(f"not an expression: {expr!r}")


def weights(rs: RootSystem, expr: Expr | str,
            budget: _Budget | None = None) -> WeightMultiset:
    """Weight multiset of the expression over the given root system.

    Raises SizeCapExceeded before any step that would take the evaluation
    past ``COST_CAP`` weight terms; evaluations given one ``budget`` share
    one cap.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    pack, unpack = _packer(rs.rank, _bound(rs, expr))
    out = _eval(rs, expr, _Budget() if budget is None else budget, pack)
    return WeightMultiset(dict(zip(unpack(out), out.values())))


def memoized(rs: RootSystem, kind: str, expr: Expr | str,
             answer: Callable[[RootSystem, Expr], object]):
    """``answer(rs, parse(expr))``, kept in ``rs.expr_memo`` under
    ``(kind, parse(expr))``: a text and its parsed tree share one entry, and
    each is answered once per root system for the life of the process.
    An error (``SizeCapExceeded``, ``InvalidWeight``, ``NotAGModule``, ...)
    propagates and is not stored, so a repeat raises it again."""
    if isinstance(expr, str):
        expr = parse(expr)
    key = (kind, expr)
    memo = rs.expr_memo
    out = memo.get(key)
    if out is None:
        out = memo[key] = answer(rs, expr)
    return out


def dim(rs: RootSystem, expr: Expr | str) -> int:
    """Total dimension (computed structurally; equals weights(...).total_dim).

    Raises SizeCapExceeded when the dimension of the expression or of a
    subexpression has more decimal digits than Python converts to text
    (``sys.get_int_max_str_digits()``); no value on the way gets twice as long.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    return _dim(rs, expr, 10 ** _max_digits())


def _max_digits() -> int:
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _too_large() -> SizeCapExceeded:
    return SizeCapExceeded(
        f"expression dimension has more than {_max_digits()} decimal digits")


def _comb(n: int, k: int, cap: int) -> int:
    """comb(n, k) for n >= -1, refused once a partial product reaches ``cap``.
    comb(n, i) >= 2^i for i <= n/2, so that takes at most log2(cap) steps."""
    out = 1
    for i in range(min(k, n - k)):
        out = out * (n - i) // (i + 1)
        if out >= cap:
            raise _too_large()
    return out if k <= n or k == 0 else 0


def _dim(rs: RootSystem, expr: Expr, cap: int) -> int:
    if isinstance(expr, Atom):
        n_pos = len(rs.positive_roots)
        out = {"n": n_pos, "h": rs.rank, "b": n_pos + rs.rank,
               "q": n_pos, "g": 2 * n_pos + rs.rank}[expr.kind]
    elif isinstance(expr, Line):
        if len(expr.coords) != rs.rank:
            raise InvalidWeight(
                f"line weight has {len(expr.coords)} coordinates; rank is {rs.rank}")
        out = 1
    elif isinstance(expr, Tensor):
        out = 1
        for f in expr.factors:
            out *= _dim(rs, f, cap)
            if out >= cap:
                raise _too_large()
    elif isinstance(expr, Sum):
        out = sum(_dim(rs, t, cap) for t in expr.terms)
    elif isinstance(expr, Power):
        base = _dim(rs, expr.base, cap)
        if base > 1 and expr.exponent * (base.bit_length() - 1) >= cap.bit_length():
            raise _too_large()  # base^e >= 2^(e * (bits - 1))
        out = base ** expr.exponent
    elif isinstance(expr, Wedge):
        out = _comb(_dim(rs, expr.inner, cap), expr.degree, cap)
    elif isinstance(expr, Sym):
        out = _comb(_dim(rs, expr.inner, cap) + expr.degree - 1, expr.degree, cap)
    else:
        raise TypeError(f"not an expression: {expr!r}")
    if out >= cap:
        raise _too_large()
    return out
