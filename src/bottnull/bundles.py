"""Equivariant bundle expressions over the flag variety and their weight multisets.

Atoms: ``n`` (nilradical, weights -alpha), ``h`` (Cartan, weight 0 with
multiplicity rank), ``b = n + h``, ``q = g/b`` (weights +alpha), ``g = b + q``,
and ``L[c1,...,ck]`` (line with the given fundamental coordinates).  Operators:
``*`` tensor, ``+`` direct sum, ``^`` tensor power, ``wedge^k(...)`` and
``sym^k(...)`` with index-expansion semantics (binding precedence ^ > * > +).

Semantics keep only the weight multiset (filtration-graded data): every
evaluation is a map weight -> multiplicity with deterministic ordering.
One structural pass over the tree (``_shape``, also ``dim``'s) refuses a
wrong-rank line or an unprintable dimension before any evaluation, and gives
the one width at which ``weights`` packs keys; only the result is unpacked.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
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
                return Atom(text)
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
    """Canonical text form; ``parse(unparse(e)) == e`` for every tree that
    ``parse`` returns, so the text names the tree (``memoized``'s key)."""
    return _unparse(expr, 0)


def _unparse(expr: Expr, level: int) -> str:
    # level: 0 top or operand, 1 sum term, 2 tensor factor, 3 power base.
    # A sum, tensor or power in a place of its own kind or tighter keeps
    # its parentheses: (a+b)+c, (a*b)*c and (a^2)^3 are trees of their own.
    # Lists, not generators: they keep deep trees further from the
    # recursion limit (see ``memoized``).
    if isinstance(expr, Atom):
        return expr.kind
    if isinstance(expr, Line):
        return "L[" + ",".join(str(c) for c in expr.coords) + "]"
    if isinstance(expr, Wedge):
        return f"wedge^{expr.degree}(" + _unparse(expr.inner, 0) + ")"
    if isinstance(expr, Sym):
        return f"sym^{expr.degree}(" + _unparse(expr.inner, 0) + ")"
    if isinstance(expr, Power):
        body = _unparse(expr.base, 3) + f"^{expr.exponent}"
        return f"({body})" if level >= 3 else body
    if isinstance(expr, Tensor):
        body = "*".join([_unparse(f, 2) for f in expr.factors])
        return f"({body})" if level >= 2 else body
    if isinstance(expr, Sum):
        body = "+".join([_unparse(t, 1) for t in expr.terms])
        return f"({body})" if level >= 1 else body
    raise TypeError(f"not an expression: {expr!r}")


class _WeightMap:
    """Immutable, zero-free weight -> integer map.

    Iteration follows evaluation order: the order in which the computation
    that built the map first met each weight, the same on every run for the
    same input.  Nothing inside the pipeline depends on it; printers and
    failure messages sort through ``sorted_items()``.

    Equal to a map of the same class or to a plain dict with the same
    entries; maps of different classes (weight multisets, G-modules keyed by
    highest weight) never compare equal.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict[Weight, int] | None = None):
        # ``dict(data)`` keeps the stored hashes of the keys; a comprehension
        # would hash every tuple again.  Zeros (``Fraction(0)`` too) are rare.
        data = dict(data) if data else {}
        if 0 in data.values():
            data = {w: c for w, c in data.items() if c != 0}
        self._data = data

    @classmethod
    def _adopt(cls, data: dict):
        """A map that keeps ``data`` itself, without the copy and the zero
        scan of ``__init__``: for a fresh, zero-free dict that nothing else
        holds or changes."""
        out = cls.__new__(cls)
        out._data = data
        return out

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


def _graded_power(ws: dict, k: int, symmetric: bool, budget: _Budget) -> list:
    """Index-expansion wedge/sym powers 0..k of a packed weight multiset via
    layered DP: layer d holds sums of d weights, taken in tuple order
    (``sorted`` on packed keys gives it)."""
    budget.charge(k + 1)
    layers: list[dict] = [{} for _ in range(k + 1)]
    layers[0][0] = 1
    items = sorted(ws.items())
    for t, (w, m) in enumerate(items):
        # For each j up to ``top`` (the nonzero coefficients) this pass loops
        # over d reading layer d - j: at most top * per_read terms, charged
        # (top + 1) * per_read, which keeps what the cap refuses unchanged.
        # Layers only grow and top >= 1, so every later pass is charged at
        # least 2 * per_read.
        top = k if symmetric else min(k, m)
        per_read = sum(map(len, layers)) + k
        budget.charge((top + 1) * per_read,
                      ahead=2 * per_read * (len(items) - t - 1))
        # Layer d reads only layers below it, which this weight has not
        # touched yet when d runs from k down: the layers grow in place.
        for d in range(k, 0, -1):
            tgt = layers[d]
            get = tgt.get
            for j in range(1, min(d, top) + 1):
                src = layers[d - j]
                if not src:
                    continue
                off = j * w
                coeff = comb(m + j - 1, j) if symmetric else comb(m, j)
                if coeff == 1:
                    for key, c in src.items():
                        key += off
                        tgt[key] = get(key, 0) + c
                else:
                    for key, c in src.items():
                        key += off
                        tgt[key] = get(key, 0) + c * coeff
    return layers


def _eval(rs: RootSystem, expr: Expr, budget: _Budget, pack) -> dict:
    """Weight multiset of ``expr`` on keys packed by ``pack``; the packed
    zero weight is 0 and ``pack`` is linear, so -pack(w) packs -w."""
    if isinstance(expr, Atom):
        return dict(_atom_maps(rs, pack)[expr.kind])
    if isinstance(expr, Line):
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
        if not expr.exponent:  # ``_shape`` has checked the base: not evaluated
            return acc
        base = _eval(rs, expr.base, budget, pack)
        budget.charge(expr.exponent)  # one convolution call per step
        # acc only grows, so every later step costs at least as much.
        for step in range(expr.exponent):
            pairs = len(acc) * len(base)
            budget.charge(pairs, ahead=pairs * (expr.exponent - step - 1))
            acc = _convolve_packed(acc, base)
        return acc
    # Wedge or Sym: ``_shape`` has refused any other node.
    if not expr.degree:  # ``_shape`` has checked the operand: not evaluated
        return {0: 1}
    return _graded_power(_eval(rs, expr.inner, budget, pack), expr.degree,
                         isinstance(expr, Sym), budget)[expr.degree]


def _atom_maps(rs: RootSystem, pack) -> dict[str, dict]:
    """The five atoms' packed maps, built once per root system and packing
    (``pack(rho)`` names the field width) and kept in ``rs._packed_atoms``;
    ``_eval`` hands out copies."""
    key = pack(rs.rho)
    maps = rs._packed_atoms.get(key)
    if maps is None:
        roots = [pack(r.fund_coords) for r in rs.positive_roots]
        q, n, h = dict.fromkeys(roots, 1), {-r: 1 for r in roots}, {0: rs.rank}
        maps = rs._packed_atoms[key] = {"n": n, "h": h, "b": {**n, **h},
                                       "q": q, "g": {**q, **n, **h}}
    return maps


def weights(rs: RootSystem, expr: Expr | str) -> WeightMultiset:
    """Weight multiset of the expression over the given root system.

    Raises what ``_shape`` raises before any evaluation, and
    SizeCapExceeded before any step that would take the evaluation past
    ``COST_CAP`` weight terms.  The answer is memoized (``memoized``, kind
    ``"weights"``): a repeat returns the same multiset and evaluates
    nothing, and ``bwb.psupp`` of the expression reads the same entry.
    """
    return memoized(rs, "weights", expr, _weights)


def _weights(rs: RootSystem, expr: Expr,
             budget: _Budget | None = None) -> WeightMultiset:
    """``weights`` evaluated afresh: it never reads or writes the memo, so
    what the cost cap refuses in a larger evaluation (``repthy.decompose``,
    whose steps share one ``budget``) does not depend on what the process
    has asked before."""
    pack, unpack = _packer(rs.rank, _shape(rs, expr)[1])
    packed = _eval(rs, expr, _Budget() if budget is None else budget, pack)
    return WeightMultiset._adopt(dict(zip(unpack(packed), packed.values())))


def wedge_layers(rs: RootSystem, expr: Expr | str,
                 k: int) -> list[WeightMultiset]:
    """The weights of wedge^0 .. wedge^k of the expression, from the one
    graded pass that ``weights`` runs for ``wedge^k``."""
    if isinstance(expr, str):
        expr = parse(expr)
    pack, unpack = _packer(rs.rank, _shape(rs, Wedge(k, expr))[1])
    budget = _Budget()
    layers = _graded_power(_eval(rs, expr, budget, pack), k, False, budget)
    return [WeightMultiset._adopt(dict(zip(unpack(layer), layer.values())))
            for layer in layers]


def memoized(rs: RootSystem, kind: str, expr: Expr | str,
             answer: Callable[[RootSystem, Expr], object]):
    """``answer(rs, parse(expr))``, kept in ``rs.expr_memo`` under
    ``(kind, unparse(parse(expr)))``: a text and its parsed tree share one
    entry, and each is answered once per root system for the life of the
    process.  The canonical text names the tree (``unparse``) and stands in
    for it as the key: hashing and comparing two equal trees parsed apart
    recurses through every node, past Python's default recursion limit at
    ``MAX_NESTING`` levels, while a string is hashed and compared flat.
    A text is parsed and unparsed once per process (``_canonical``), so a
    repeat of a text is two dictionary lookups.
    The kinds are ``"weights"``, ``"psupp"`` and ``"decompose"``, for
    ``weights``, ``bwb.psupp`` and ``repthy.decompose``; the answers
    are immutable, and a repeat returns the same object.  An error
    (``SizeCapExceeded``, ``InvalidWeight``, ``NotAGModule``, ...)
    propagates and is not stored, so a repeat raises it again."""
    if isinstance(expr, str):
        expr, text = _canonical(expr)
    else:
        text = unparse(expr)
    key = (kind, text)
    memo = rs.expr_memo
    out = memo.get(key)
    if out is None:
        out = memo[key] = answer(rs, expr)
    return out


@lru_cache(maxsize=None)
def _canonical(text: str) -> tuple[Expr, str]:
    """``(parse(text), unparse(parse(text)))``, once per text per process.
    A text that does not parse raises on every call: ``lru_cache`` stores
    no exception."""
    expr = parse(text)
    return expr, unparse(expr)


def dim(rs: RootSystem, expr: Expr | str) -> int:
    """Total dimension from ``_shape``; equals weights(...).total_dim."""
    if isinstance(expr, str):
        expr = parse(expr)
    return _shape(rs, expr)[0]


def _max_digits() -> int:
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@lru_cache(maxsize=None)
def _cap(digits: int) -> int:
    return 10 ** digits  # about 55 us at 4300 digits: once per limit value


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


def _shape(rs: RootSystem, expr: Expr, cap: int | None = None) -> tuple[int, int]:
    """``(dimension, bound)`` of ``expr``, the bound on |coordinate| over the
    weights of ``expr`` and its subexpressions (one packed width serves a
    whole evaluation; ``wedge_layers`` evaluates the operand of a degree-0
    wedge, hence ``max(k, 1)``).  Raises InvalidWeight on a line of the
    wrong rank, and SizeCapExceeded once a dimension on the way reaches
    ``cap``, more digits than Python prints (``sys.get_int_max_str_digits()``):
    no value on the way gets twice as long.  A zero exponent or degree is
    checked here with its operand, which evaluation then skips."""
    cap = cap or _cap(_max_digits())
    if isinstance(expr, Atom):
        n_pos = len(rs.positive_roots)
        out = {"n": n_pos, "h": rs.rank, "b": n_pos + rs.rank,
               "q": n_pos, "g": 2 * n_pos + rs.rank}[expr.kind]
        bound = 0 if expr.kind == "h" else rs.root_coord_bound
    elif isinstance(expr, Line):
        if len(expr.coords) != rs.rank:
            raise InvalidWeight(
                f"line weight has {len(expr.coords)} coordinates; rank is {rs.rank}")
        out, bound = 1, max(map(abs, expr.coords), default=0)
    elif isinstance(expr, Tensor):
        out, bound = 1, 0
        for f in expr.factors:
            d, b = _shape(rs, f, cap)
            out, bound = out * d, bound + b
            if out >= cap:
                raise _too_large()
    elif isinstance(expr, Sum):
        out = bound = 0
        for t in expr.terms:
            d, b = _shape(rs, t, cap)
            out, bound = out + d, max(bound, b)
    elif isinstance(expr, Power):
        base, bound = _shape(rs, expr.base, cap)
        if base > 1 and expr.exponent * (base.bit_length() - 1) >= cap.bit_length():
            raise _too_large()  # base^e >= 2^(e * (bits - 1))
        out, bound = base ** expr.exponent, max(expr.exponent, 1) * bound
    elif isinstance(expr, (Wedge, Sym)):
        inner, bound = _shape(rs, expr.inner, cap)
        top = inner if isinstance(expr, Wedge) else inner + expr.degree - 1
        out, bound = _comb(top, expr.degree, cap), max(expr.degree, 1) * bound
    else:
        raise TypeError(f"not an expression: {expr!r}")
    if out >= cap:
        raise _too_large()
    return out, bound
