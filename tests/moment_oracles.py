"""Reference free-cumulant computations for the `kfree.moments` tests.

`kfree.moments.free_cumulant` is one pass over NC(n) against the closed-form
Moebius table.  The oracles here take the definitions directly:

- `free_cumulant_recursive` subtracts every proper non-crossing product of
  lower cumulants from the moment;
- `alternating_centered_moment` expands the centred alternating moment of
  the freeness definition term by term;
- `moments_from_cumulants` sums the blockwise cumulant products over NC(n),
  the inverse of `free_cumulant`;
- `free_mixed_word` is the moment of a word in free families, from
  cumulants that vanish on every block mixing families.
"""

from typing import Callable, Hashable, Mapping, Sequence

from kfree.moments import Value, Word, cumulants, parts_product
from kfree.partitions import Partition, enumerate_nc, nc_moebius_table


def free_cumulant_recursive(phi: Callable[[Word], Value], word: Sequence[Hashable]) -> Value:
    """kappa_n(word) by the recursive definition, for cross-checking."""
    word = tuple(word)
    n = len(word)
    if n == 1:
        return phi(word)
    total: Value = phi(word)
    for pi in enumerate_nc(n):
        if pi == Partition.full(n):
            continue
        term: Value = 1
        for block in pi.blocks:
            term *= free_cumulant_recursive(phi, tuple(word[i - 1] for i in block))
        total -= term
    return total


def alternating_centered_moment(
    phi_a: Callable[[Word], Value],
    phi_b: Callable[[Word], Value],
    n: int,
    a_powers: Sequence[int] | None = None,
    b_powers: Sequence[int] | None = None,
    empirical: Callable[[Word], Value] | None = None,
) -> Value:
    """Expand <prod_i (A^{n_i} - <A^{n_i}>)(B^{m_i} - <B^{m_i}>)>.

    With `empirical` unset the surviving mixed words are evaluated under the
    freeness assumption, in which case the result vanishes identically;
    an empirical functional (labels "A"/"B") yields the numeric residual.
    """
    a_powers = tuple(a_powers) if a_powers is not None else (1,) * n
    b_powers = tuple(b_powers) if b_powers is not None else (1,) * n
    if len(a_powers) != n or len(b_powers) != n:
        raise ValueError("need one power per alternating slot")
    factors: list[tuple[Hashable, int, Value]] = []
    for i in range(n):
        factors.append(("A", a_powers[i], phi_a(("A",) * a_powers[i])))
        factors.append(("B", b_powers[i], phi_b(("B",) * b_powers[i])))

    def evaluate(kept: tuple[int, ...]) -> Value:
        flat: list[tuple[Hashable, Hashable]] = []
        for idx in kept:
            fam, power, _ = factors[idx]
            flat.extend([(fam, fam)] * power)
        if not flat:
            return 1
        if empirical is not None:
            return empirical(tuple(fam for fam, _ in flat))
        return free_mixed_word(flat, {"A": phi_a, "B": phi_b})

    total: Value = 0
    for mask in range(1 << len(factors)):
        kept = tuple(i for i in range(len(factors)) if mask >> i & 1)
        sign_part: Value = 1
        for i in range(len(factors)):
            if not (mask >> i & 1):
                sign_part *= -factors[i][2]
        total += sign_part * evaluate(kept)
    return total


def moments_from_cumulants(word: Sequence[Hashable], kappa: Callable[[Word], Value]) -> Value:
    """<word> = sum over NC(n) of the blockwise cumulant products."""
    total: Value = 0
    for pi, _ in nc_moebius_table(len(word)):
        total += parts_product(kappa, word, pi.blocks)
    return total


def free_mixed_word(
    word: Sequence[tuple[Hashable, Hashable]],
    phis: Mapping[Hashable, Callable[[Word], Value]],
) -> Value:
    """Moment of an arbitrary word of elements from free families.

    `word` is a sequence of (family, label) pairs.  Families are free when
    their mixed free cumulants vanish, so the moment is `moments_from_cumulants`
    of a cumulant that is 0 on any block mixing families.
    """
    kappas = {fam: cumulants(phi) for fam, phi in phis.items()}

    def kappa(block: Word) -> Value:
        if len({fam for fam, _ in block}) > 1:
            return 0
        return kappas[block[0][0]](tuple(label for _, label in block))

    return moments_from_cumulants(word, kappa)
