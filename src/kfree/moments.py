"""Moment <-> free-cumulant engine over arbitrary expectation functionals.

Words are tuples of opaque hashable labels (an operator name, possibly
bundled with a time tag).  The engine itself never touches matrices:
everything flows through an expectation functional mapping a word to a
number, so the same code serves symbolic checks, Monte Carlo ensemble
averages, and thermal exact-diagonalization functionals.

The one place matrices enter is `_word_trace`, the (weighted) normalized
trace of a word over dense or diagonal letters, which every matrix-backed
functional (`Expectation.normalized_trace`, the ensemble averages, the
thermal moments) evaluates its words with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .partitions import kreweras_complement, nc_moebius_table

Word = tuple[Hashable, ...]
Value = complex | float | Fraction


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for matrices and diagonals (1-D): only two matrices take a matmul,
    a diagonal scales the rows or columns of the other factor.  A real
    matrix times a complex one is one real GEMM on the complex factor's
    (re, im) column pairs, half the flops of casting the real factor to
    complex; complex times real is its transpose, (x y)^T = y^T x^T."""
    if x.ndim == 2 and y.ndim == 2:
        if x.dtype == np.complex128 and y.dtype == np.float64:
            return _times(y.T, x.T).T
        if x.dtype == np.float64 and y.dtype == np.complex128:
            return (x @ np.ascontiguousarray(y).view(np.float64)).view(np.complex128)
        return x @ y
    if x.ndim == 1 and y.ndim == 2:
        return x[:, None] * y
    return x * y


def _diagonal(x: np.ndarray) -> np.ndarray:
    return x if x.ndim == 1 else np.diagonal(x)


def _word_trace(
    letters: Mapping[Hashable, np.ndarray], weights: np.ndarray | None = None
) -> Callable[[Word], complex]:
    """Trace of words over letters: Tr(L_w1 ... L_wn)/D, or with `weights`
    the diagonal sum sum_i w_i (L_w1 ... L_wn)_ii.

    A letter is a D x D matrix or, 1-D, the diagonal of a diagonal matrix,
    which any product takes in O(D^2) (`_times`).  A word of length one is a
    diagonal sum.  A longer word splits into halves P = w[:h] and S = w[h:],
    and closes with the O(D^2) contraction (P S)_ii = sum_j P_ij S_ji.  Every
    product is cached by the returned function and extends its longest
    cached prefix, so the split h is the one that needs the fewest new
    matmuls of two matrices, counted for both halves together (S may extend
    a product P built) given what earlier words built, h = n // 2 on a tie;
    any split gives the same sum.
    """
    dims = {m.shape[0] for m in letters.values()}
    if len(dims) != 1:
        raise ValueError("operators must share one dimension")
    (dim,) = dims
    dense = {label for label, m in letters.items() if m.ndim == 2}
    prods: dict[Word, np.ndarray] = {}

    def cached(word: Word, new: set[Word] | frozenset = frozenset()) -> int:
        """Length of the longest prefix of `word` with a product at hand or in `new`."""
        n = len(word)
        while n > 1 and word[:n] not in prods and word[:n] not in new:
            n -= 1
        return n

    def matmuls(word: Word, new: set[Word]) -> int:
        """The matmuls a product of `word` needs beyond `prods` and `new`; adds the prefixes it builds to `new`."""
        count = 0
        for i in range(cached(word, new), len(word)):
            count += word[i] in dense and not dense.isdisjoint(word[:i])
            new.add(word[: i + 1])
        return count

    def product(word: Word) -> np.ndarray:
        n = cached(word)
        m = prods[word[:n]] if n > 1 else letters[word[0]]
        for i in range(n, len(word)):
            m = prods[word[: i + 1]] = _times(m, letters[word[i]])
        return m

    def split(word: Word) -> int:
        """The cut with the fewest new matmuls; `min` keeps n // 2 on a tie."""
        n = len(word)

        def cost(h: int) -> int:
            new: set[Word] = set()
            return matmuls(word[:h], new) + matmuls(word[h:], new)

        return min((n // 2, *range(1, n)), key=cost)

    def trace(word: Word) -> complex:
        if len(word) == 1:
            diag = _diagonal(letters[word[0]])
        else:
            h = split(word)
            p, s = product(word[:h]), product(word[h:])
            diag = np.sum(p * s.T, axis=1) if p.ndim == s.ndim == 2 else _diagonal(p) * _diagonal(s)
        if weights is None:
            return complex(np.sum(diag)) / dim
        return complex(np.dot(weights, diag))

    return trace


def _cyclic_key(word: Word) -> Word:
    """The least rotation of a nonempty word by `repr`, shared by all its rotations."""
    return min((word[i:] + word[:i] for i in range(len(word))), key=repr)


class Expectation:
    """A cached expectation functional on words of operator labels.

    The empty word evaluates to 1 (normalization).  `cyclic=True` declares
    invariance under cyclic rotation of the word, which is used purely as a
    cache key optimization for trace-like functionals.
    """

    def __init__(self, fn: Callable[[Word], Value], cyclic: bool = False):
        self._fn = fn
        self.cyclic = cyclic
        self._cache: dict[Word, Value] = {}
        self._keys: dict[Word, Word] = {}

    def _key(self, word: Word) -> Word:
        if not self.cyclic or len(word) < 2:
            return word
        key = self._keys.get(word)
        if key is None:
            key = self._keys[word] = _cyclic_key(word)
        return key

    def __call__(self, word: Sequence[Hashable]) -> Value:
        word = tuple(word)
        if not word:
            return 1
        key = self._key(word)
        if key not in self._cache:
            self._cache[key] = self._fn(key)
        return self._cache[key]

    @classmethod
    def from_moment_sequence(cls, moments: Sequence[Value], label: Hashable = "A") -> "Expectation":
        """Single-operator functional: <A^n> = moments[n-1]."""

        def fn(word: Word) -> Value:
            if any(w != label for w in word):
                raise KeyError(f"unknown label in {word!r}; expected {label!r}")
            n = len(word)
            if n > len(moments):
                raise KeyError(f"moment of order {n} not provided")
            return moments[n - 1]

        return cls(fn, cyclic=True)

    @classmethod
    def normalized_trace(cls, operators: Mapping[Hashable, np.ndarray]) -> "Expectation":
        """<word> = Tr(product)/D over a dictionary of dense matrices."""
        return cls(_word_trace(operators), cyclic=True)


def sub_words(word: Sequence[Hashable], parts: Iterable[Sequence[int]]) -> list[Word]:
    """The word read along each part: 1-based positions in the order given (a cycle reads forward)."""
    return [tuple(word[i - 1] for i in part) for part in parts]


def parts_product(
    f: Callable[[Word], Value], word: Sequence[Hashable], parts: Iterable[Sequence[int]], start: Value = 1
) -> Value:
    """start times the product of f over the sub-words of `parts`, multiplied left
    to right: kappa_pi over the blocks of pi, D^#beta prod phi over the cycles of beta."""
    out = start
    for part in parts:
        out *= f(tuple([word[i - 1] for i in part]))
    return out


def free_cumulant(phi: Callable[[Word], Value], word: Sequence[Hashable]) -> Value:
    """kappa_n(word) by Moebius inversion over NC(n)."""
    word = tuple(word)
    total: Value = 0
    for sigma, mu in nc_moebius_table(len(word)):
        total += parts_product(phi, word, sigma.blocks) * mu
    return total


def cumulant_words(word: Sequence[Hashable]) -> list[Word]:
    """The block sub-words `free_cumulant` reads, each once, in the order it first reads them."""
    return list(dict.fromkeys(s for sigma, _ in nc_moebius_table(len(word)) for s in sub_words(word, sigma.blocks)))


def cumulants(phi: Callable[[Word], Value]) -> Expectation:
    """The free cumulants of phi as a cached functional: kappa(word) = free_cumulant(phi, word)."""
    return Expectation(lambda word: free_cumulant(phi, word))


def mixed_moment_free(
    phi_a: Callable[[Word], Value],
    phi_b: Callable[[Word], Value],
    a_word: Sequence[Hashable],
    b_word: Sequence[Hashable],
) -> Value:
    """<A1 B1 ... An Bn> for free families, via the dual-partition formula:
    sum over pi in NC(n) of kappa_pi(A) times the B moments grouped by the
    Kreweras complement of pi."""
    a_word, b_word = tuple(a_word), tuple(b_word)
    if len(a_word) != len(b_word):
        raise ValueError("words must have equal length")
    kappa = cumulants(phi_a)
    total: Value = 0
    for pi, _ in nc_moebius_table(len(a_word)):
        total += parts_product(kappa, a_word, pi.blocks) * parts_product(phi_b, b_word, kreweras_complement(pi).blocks)
    return total
