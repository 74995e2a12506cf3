"""Output checks, one per workload step, run outside every timed window.

Each check reads the step's result document and compares it with an oracle
(oracles.py, or plain numpy on the generated inputs) or with a bound that
does not depend on the seed.  `check_run(spec, docs)` maps step name to
None (pass) or a one-line failure reason.  Only the `haar-test` checks call
into kfree, for the exact finite-D Haar value (`haar_word_average_exact`).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import oracles
from workloads import ETH_BUILD_DIM, ETH_DIM, WINDOW_DIM, read_operator


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: complex, want: complex, what: str, rel: float = 1e-9) -> None:
    _require(abs(got - want) <= rel * max(1.0, abs(want)), f"{what}: got {got!r}, want {want!r}")


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------


def _perm_coeffs(doc) -> dict:
    return {oracles.parse_perm(k): Fraction(v) for k, v in doc["result"]["coefficients"].items()}


def _check_exact_algebra(spec, docs) -> dict:
    m = [Fraction(x) for x in spec["moments"]]
    kappa = oracles.cumulants_from_moments(m)
    checks = {}

    def cumulants():
        _require(kappa[2] == m[2] + 2 * m[0] ** 3 - 3 * m[0] * m[1], "oracle kappa3 closed form")
        _require(kappa[3] == m[3] - 2 * m[1] ** 2 - 4 * m[0] * m[2] + 10 * m[0] ** 2 * m[1] - 5 * m[0] ** 4,
                 "oracle kappa4 closed form")
        got = docs["cumulants"]["result"]["kappa"]
        _require(sorted(got, key=int) == [str(n) for n in range(1, len(m) + 1)], "kappa orders")
        for n, exact in enumerate(kappa, start=1):
            _close(_c(got[str(n)]), float(exact), f"kappa{n}")

    checks["cumulants"] = cumulants

    def channel_exact(name, D):
        def check():
            # Gram . c equals the permuted traces, exactly in rationals
            c = _perm_coeffs(docs[name])
            perms = oracles.all_perms(5)
            _require(sorted(c) == perms, "coefficient keys are not S_5")
            for a in perms:
                lhs = sum(D ** len(oracles.cycles(oracles.rel(a, b))) * c[b] for b in perms)
                _require(lhs == oracles.permuted_trace(a, m, D), f"Gram.c != Tr at {a}")
        return check

    for step in spec["steps"]:
        if step["name"].startswith("channel-exact-D"):
            checks[step["name"]] = channel_exact(step["name"], int(step["name"][len("channel-exact-D"):]))

    def channel_asymptotic():
        c = _perm_coeffs(docs["channel-asymptotic"])
        perms = oracles.all_perms(6)
        _require(sorted(c) == perms, "coefficient keys are not S_6")
        for a in perms:
            cyc = oracles.cycles(a)
            want = Fraction(1, 64 ** (6 - len(cyc)))
            for b in cyc:
                want *= kappa[len(b) - 1]
            _require(c[a] == want, f"asymptotic coefficient at {a}")

    checks["channel-asymptotic"] = channel_asymptotic

    def otoc():
        a = [Fraction(x) for x in spec["a_moments"]]
        b = [Fraction(x) for x in spec["b_moments"]]
        res = docs["otoc"]["result"]
        _close(_c(res["formula"]), float(oracles.otoc_formula(oracles.cumulants_from_moments(a), b, 4)), "formula")
        _close(_c(res["channel"]), float(oracles.otoc_exact(a, b, 4, 16)), "channel value")

    checks["otoc"] = otoc

    def nc():
        res = docs["nc"]["result"]
        n = res["n"]
        parts = {_partition_str(p): p for p in oracles.nc_partitions(n)}
        _require(res["count"] == oracles.catalan(n), "count is not Catalan(n)")
        _require(sorted(res["partitions"]) == sorted(parts), "partitions are not NC(n)")
        for s, k in res["kreweras"].items():
            _require(k == _partition_str(oracles.kreweras(parts[s], n)), f"Kreweras of {s}")
        bottom, top = _partition_str([(i,) for i in range(1, n + 1)]), _partition_str([tuple(range(1, n + 1))])
        pairs = {(s, p) for s in parts for p in parts if _leq(parts[s], parts[p])}
        table = {tuple(key.split(" <= ")): v for key, v in res["moebius"].items()}
        _require(set(table) == pairs, "Moebius table does not cover exactly the comparable pairs")
        for (s, p), v in table.items():
            if s == p:
                _require(v == 1, f"mu({s}, {s}) != 1")
            elif s == bottom:
                _require(v == oracles.moebius_from_bottom(parts[p]), f"mu(0, {p})")
            elif p == top:
                _require(v == oracles.moebius_to_top(parts[s], n), f"mu({s}, 1)")

    checks["nc"] = nc

    def wg():
        res = docs["wg"]["result"]
        k, D = res["k"], res["dim"]
        perms = [oracles.parse_perm(p) for p in res["permutations"]]
        _require(sorted(perms) == oracles.all_perms(k), "permutations are not S_k")
        w = oracles.weingarten_class_function(k, D)
        for i, a in enumerate(perms):
            for j, b in enumerate(perms):
                r = oracles.rel(a, b)
                _require(int(res["gram"][i][j]) == D ** len(oracles.cycles(r)), f"Gram[{i}][{j}]")
                _require(Fraction(res["weingarten"][i][j]) == w[oracles.cycle_type(r)], f"Wg[{i}][{j}]")

    checks["wg"] = wg
    return checks


def _partition_str(blocks) -> str:
    return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in sorted(blocks)) + "}"


def _leq(sigma, pi) -> bool:
    where = {x: i for i, b in enumerate(pi) for x in b}
    return all(len({where[x] for x in b}) == 1 for b in sigma)


# ---------------------------------------------------------------------------
# haar-mc
# ---------------------------------------------------------------------------


def _check_haar_mc(spec, docs) -> dict:
    checks = {}

    def haar_test(name, k, D):
        def check():
            from kfree.channel import haar_word_average_exact

            a_path, b_path = spec["files"][str(D)]
            A, B = read_operator(a_path), read_operator(b_path)
            pa = [np.trace(np.linalg.matrix_power(A, n)) / D for n in range(2 * k + 1)]
            pb = [np.trace(np.linalg.matrix_power(B, n)) / D for n in range(2 * k + 1)]
            word = ("A", "B") * k
            cache = {}

            def phi(positions):
                sub = tuple(word[p] for p in positions)
                if sub not in cache:
                    cache[sub] = complex(haar_word_average_exact(
                        lambda w: pa[len(w)], lambda w: pb[len(w)], sub, D))
                return cache[sub]

            exact = oracles.free_cumulant(phi, 2 * k)
            res = docs[name]["result"]
            est, se = _c(res["estimate"]), res["std_error"]
            _require(se > 0 and abs(est - exact) <= 4 * se,
                     f"kappa{2 * k} estimate {est:.3e} is {abs(est - exact) / se:.1f} SE from exact {exact:.3e}")
        return check

    for step in spec["steps"]:
        if step["name"].startswith("haar-test-k"):
            argv = step["argv"]
            checks[step["name"]] = haar_test(step["name"], int(argv[argv.index("--k") + 1]),
                                             int(argv[argv.index("--dim") + 1]))

    def distance():
        # criterion 7: time-window distance within a factor 2 of sqrt(k!) D^(k/2)
        res = docs["distance"]["result"]
        predicted = math.sqrt(math.factorial(res["k"])) * 16 ** (res["k"] / 2)
        _require(predicted / 2 <= res["distance"] <= 2 * predicted, f"distance {res['distance']}")

    def design():
        res = docs["design-check"]["result"]
        _require(res["passed"] is True and res["max_deviation"] <= 1e-10, "Clifford group is not a 3-design")

    checks["distance"], checks["design-check"] = distance, design
    return checks


# ---------------------------------------------------------------------------
# eth-spectral
# ---------------------------------------------------------------------------


class _Thermal:
    """Thermal word moments of operator files, in the eigenbasis of H."""

    def __init__(self, h_path: str, obs_paths: list[str], beta: float):
        h = read_operator(h_path)
        self.E, V = np.linalg.eigh(h)
        w = np.exp(-beta * (self.E - self.E[0]))
        self.w = w / w.sum()
        self.obs = [V.conj().T @ read_operator(p) @ V for p in obs_paths]

    def at(self, m: np.ndarray, t: float) -> np.ndarray:
        ph = np.exp(1j * self.E * t)
        return (ph[:, None] * m) * ph.conj()[None, :]

    def cumulant(self, letters: list[np.ndarray]) -> complex:
        cache = {}

        def phi(positions):
            if positions not in cache:
                prod = letters[positions[0]]
                for p in positions[1:]:
                    prod = prod @ letters[p]
                cache[positions] = complex(np.dot(self.w, np.diagonal(prod)))
            return cache[positions]

        return complex(oracles.free_cumulant(phi, len(letters)))


def _check_eth_spectral(spec, docs) -> dict:
    paths = spec["paths"]
    checks = {}

    def build():
        res = docs["eth-build"]["result"]
        E = np.linalg.eigvalsh(read_operator(paths[str(ETH_BUILD_DIM)][0]).real)
        gaps = np.diff(E)
        lo, hi = len(gaps) // 4, 3 * len(gaps) // 4
        r = float(np.mean(np.minimum(gaps[lo:hi], gaps[lo + 1 : hi + 1]) / np.maximum(gaps[lo:hi], gaps[lo + 1 : hi + 1])))
        _require(res["dim"] == ETH_BUILD_DIM, "dimension")
        _close(res["spectral_width"], float(E[-1] - E[0]), "spectral width")
        _close(res["level_spacing_ratio"], r, "level spacing ratio")
        _require(0.46 < r < 0.62, f"level spacing ratio {r} is not GOE-like")
        _require(res["resonances"]["near_resonances"] == 0, "near resonances in a GOE spectrum")

    def cumulant_scan():
        th = _Thermal(paths[str(ETH_DIM)][0], paths[str(ETH_DIM)][1:], spec["beta"])
        scan = docs["eth-cumulant"]["result"]["scan"]
        _require(len(scan) == 41, "scan length")
        A, B = th.obs
        for row in scan[::10]:
            want = th.cumulant([th.at(A, row[0]), B, th.at(A, row[0]), B])
            _close(complex(row[1], row[2]), want, f"kappa4 at t={row[0]}")

    def strict():
        res = docs["strict-kappa6"]
        # criterion 8 bound: the strict-averaged mixed cumulant is O(1/D_eff)
        _require(abs(_c(res["value"])) <= 10.0 / res["effective_dim"], f"|strict kappa6| = {abs(_c(res['value']))}")

    def distinct():
        # criterion 9: the distinct-index sum tracks the thermal cumulant within 10/D
        th = _Thermal(paths[str(ETH_DIM)][0], paths[str(ETH_DIM)][1:], spec["beta"])
        A, B = th.obs
        want = th.cumulant([A, B] * docs["distinct-k3"]["k"])
        got = _c(docs["distinct-k3"]["value"])
        _require(abs(got - want) <= 10.0 / ETH_DIM, f"distinct-index {got} vs thermal cumulant {want}")

    def ladder():
        res = docs["window-ladder"]
        strict_v = _c(res["strict"])
        _require(abs(strict_v) <= 10.0 / res["effective_dim"], f"|strict kappa4| = {abs(strict_v)}")
        t_values, finite = res["t_values"], [_c(v) for v in res["finite"]]
        # a vanishing window is no average at all: the t = 0 cumulant
        th = _Thermal(paths[str(WINDOW_DIM)][0], paths[str(WINDOW_DIM)][1:], spec["beta_window"])
        A, B = th.obs
        _close(finite[0], th.cumulant([A, B, A, B]), f"window {t_values[0]}", rel=1e-6)
        # over seven decades of window length the error must fall at least
        # tenfold; near-resonant level pairs keep it from falling as 1/t_max
        errs = [abs(v - strict_v) for v in finite[1:]]
        _require(errs[-1] <= 0.1 * errs[0], f"window errors {errs} do not converge")

    def appendixb():
        # criterion 10: the factorization gap equals the crossing term
        th = _Thermal(paths[str(ETH_DIM)][0], paths[str(ETH_DIM)][1:], 0.0)
        a, b = th.obs
        w = th.w
        full = np.einsum("i,j,ji,ij,ij,ji->", w, w, a, b, a, b)
        crossing = full - np.sum(w**2 * np.diagonal(a) ** 2 * np.diagonal(b) ** 2)
        gap = _c(docs["eth-appendixb"]["result"]["gap"])
        _require(abs(gap - crossing) < 1e-12, f"gap {gap} vs crossing term {crossing}")

    def deutsch():
        res = docs["eth-deutsch"]["result"]
        _require(res["row_sum_max_error"] <= 1e-10, "overlap rows do not sum to 1")
        # at beta = 0 the weight is unitarily invariant, so kappa4 of a rotated A is kappa4 of A
        A = read_operator(paths[str(ETH_DIM)][1])
        moments = [np.trace(np.linalg.matrix_power(A, n)).real / ETH_DIM for n in range(1, 5)]
        want = oracles.cumulants_from_moments(moments)[3]
        for lam in res["lambdas"]:
            _close(_c(res["mixed_kappa4"][f"{lam},{lam}"]), want, f"kappa4 rotated at lambda={lam}")

    checks.update({"eth-build": build, "eth-cumulant": cumulant_scan, "strict-kappa6": strict,
                   "distinct-k3": distinct, "window-ladder": ladder, "eth-appendixb": appendixb,
                   "eth-deutsch": deutsch})
    return checks


_CHECKS = {"exact-algebra": _check_exact_algebra, "haar-mc": _check_haar_mc, "eth-spectral": _check_eth_spectral}


def check_run(spec: dict, raw_docs: dict[str, bytes]) -> dict[str, str | None]:
    """Verdict per step: None when its document passes, else the reason."""
    docs, verdicts = {}, {}
    for name, raw in raw_docs.items():
        try:
            docs[name] = json.loads(raw)
        except ValueError as exc:
            verdicts[name] = f"unreadable document: {exc}"
    for name, check in _CHECKS[spec["workload"]](spec, docs).items():
        if name in verdicts:
            continue
        if name not in docs:
            verdicts[name] = "no document"
            continue
        try:
            check()
            verdicts[name] = None
        except (CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
            verdicts[name] = f"{type(exc).__name__}: {exc}"
    return verdicts
