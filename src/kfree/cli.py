"""Unified command-line entry point.

Every subcommand emits a single result document embedding the resolved
configuration and the package version.  Rational numbers serialize as
"p/q" strings, complex numbers as [re, im] pairs.  Exit codes: 0 success,
1 validation error, 2 numerical-regime error (e.g. D < k).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import RegimeError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REGIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _jsonable(x):
    """x as plain JSON data.  A non-finite float is refused here, before any
    of the document is written; plain leaves, lists of them and str-keyed
    dicts of them pass as they are, uncopied."""
    plain = {str, int, bool, type(None)}
    if (
        type(x) in plain
        or (type(x) is list and set(map(type, x)) <= plain)
        or (type(x) is dict and set(map(type, x)) <= {str} and set(map(type, x.values())) <= plain)
    ):
        return x
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"the result document holds a non-finite value ({x})")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, complex):
        return [_jsonable(x.real), _jsonable(x.imag)]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, command: str, result, rows=None) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "config": _jsonable({k: v for k, v in sorted(vars(args).items()) if k not in ("func", "output")}),
        "result": _jsonable(result),
    }
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "csv":
        header, data = rows
        lines = [",".join(header)]
        for row in data:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "text":
        text = _textify(doc)
    elif fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    out = getattr(args, "output", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as dest:
        if fmt == "json":  # streamed: the document's text is never held whole
            json.dump(doc, dest, indent=2, sort_keys=True, allow_nan=False)
            text = "\n"
        dest.write(text)


def _textify(doc) -> str:
    lines = [f"# {doc['command']} (kfree {doc['version']})"]

    def walk(prefix, val):
        if isinstance(val, dict):
            for k in sorted(val):
                walk(f"{prefix}{k}.", val[k])
        elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
            for i, v in enumerate(val):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]} = {val}")

    walk("", doc["result"])
    return "\n".join(lines) + "\n"


def _parse_moments(flag: str, text: str, order: int) -> list:
    """Parse a comma list of at least `order` moments, staying exact
    (Fraction) whenever possible; a short list is an error naming `flag`."""
    out = []
    for tok in text.split(","):
        try:
            out.append(Fraction(tok.strip()))
        except (ValueError, ZeroDivisionError):
            out.append(complex(_parse_finite_floats(flag, tok)[0]))
    if len(out) < order:
        raise ValueError(f"{flag} gives {len(out)} moments, but order {order} is needed")
    return out


def _check_nc_size(flag: str, n: int) -> None:
    """Refuse, naming `flag`, free cumulants over NC(n) past the enumeration limit."""
    from .partitions import DEFAULT_ENUMERATION_LIMIT

    if n > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(f"{flag} asks for NC({n}), past the enumeration limit n <= {DEFAULT_ENUMERATION_LIMIT}")


def _check_k(k: int, limit: int, where: str = "") -> None:
    """Refuse a --k past `limit` before any permutation list, Weingarten
    table or slot-partition table exists."""
    if k > limit:
        raise ValueError(f"--k must be at most {limit}{where} (got {k})")


def _parse_finite_floats(flag: str, text: str) -> tuple[float, ...]:
    """Parse a comma list of finite floats; a bad entry is an error naming `flag`."""
    out = []
    for tok in text.split(","):
        try:
            x = float(tok)
        except ValueError:
            x = math.nan  # rejected below with the non-finite entries
        if not math.isfinite(x):
            raise ValueError(f"{flag}: entry {tok.strip()!r} of {text!r} is not a finite number")
        out.append(x)
    return tuple(out)


# The domain of every flag with one of these names, on every subcommand that
# has it, whether or not the action reads it; `dispatch` checks them once.
POSITIVE_FLAGS = ("n", "k", "dim", "length", "n_samples", "n_points", "max_order")
FINITE_FLAGS = ("beta", "t_max", "strength", "threshold", "tolerance")
CSV_COMMANDS = ("cumulants", "eth cumulant", "eth freetime")  # the tabular results


def _check_domains(args) -> None:
    for names, ok, rule in ((POSITIVE_FLAGS, lambda v: v >= 1, "positive"), (FINITE_FLAGS, math.isfinite, "finite")):
        for name in names:
            value = getattr(args, name, None)
            if value is not None and not ok(value):
                raise ValueError(f"--{name.replace('_', '-')} must be {rule} (got {value})")


def _load_matrix(path: str, flag: str = "", dim: int | None = None) -> np.ndarray:
    """A finite operator file; with `dim`, one that is not dim x dim is an error naming `flag` and the path."""
    from .matio import load_operator

    m = load_operator(path)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: operator has non-finite entries")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"{flag}: {path} is {m.shape[0]}x{m.shape[0]}, but --dim is {dim}")
    return m


def _default_observable(D: int, seed: int) -> np.ndarray:
    from .eth import goe_matrix, normalize_observable

    try:
        return normalize_observable(goe_matrix(D, np.random.default_rng(seed)))
    except ValueError as exc:  # D = 1: a 1 x 1 matrix has no traceless part
        raise ValueError(f"--dim {D}: {exc}; pass --a and --b") from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_nc(args) -> None:
    from .partitions import enumerate_nc, kreweras_complement, nc_moebius_table

    _check_nc_size(f"--n {args.n}", args.n)
    parts = enumerate_nc(args.n)
    if args.count:
        _emit(args, "nc", {"n": args.n, "count": len(parts)})
        return
    result = {"n": args.n, "count": len(parts), "partitions": [str(p) for p in parts]}
    if args.kreweras:
        result["kreweras"] = {str(p): str(kreweras_complement(p)) for p in parts}
    if args.moebius:
        # [sigma, pi] in NC(n) is the product of the NC lattices of pi's blocks W, so
        # mu(sigma, pi) = prod_W mu(sigma|W, 1_W): each piece sigma|W is a sigma of
        # nc_moebius_table(|W|) relabelled through W.  With --kreweras, one kfree process
        # takes 3.7 s at n = 9 and 17 s at n = 10 (peak 108 and 506 MB) on a 2-core x86-64 box.
        pieces = {
            w: [([(w[b[0] - 1], "{" + ",".join(str(w[x - 1]) for x in b) + "}") for b in sigma.blocks], mu)
                for sigma, mu in nc_moebius_table(len(w))]
            for w in {w for p in parts for w in p.blocks}
        }
        table = {}
        for p in parts:
            top = f"}} <= {p}"
            for combo in itertools.product(*(pieces[w] for w in p.blocks)):
                blocks = sorted(itertools.chain.from_iterable(keyed for keyed, _ in combo))
                table["{" + ", ".join(text for _, text in blocks) + top] = math.prod(mu for _, mu in combo)
        del pieces  # about as large as the table at n = 8: freed before the document is written
        result["moebius"] = table
    _emit(args, "nc", result)


def _cmd_perm(args) -> None:
    from .permutations import NCEmbeddingError, Permutation, geodesic_set, permutation_to_nc

    try:
        alpha = Permutation(tuple(int(x) for x in args.perm.split(",")))
    except ValueError as exc:
        raise ValueError(f"--perm {args.perm}: {exc}") from None
    result = {
        "permutation": str(alpha),
        "cycles": [list(c) for c in alpha.cycles()],
        "num_cycles": alpha.num_cycles(),
        "length": alpha.length(),
    }
    try:
        result["nc_image"] = str(permutation_to_nc(alpha))
    except NCEmbeddingError as exc:
        result["nc_image"] = None
        result["nc_rejection"] = exc.failed_condition
    if args.geodesic:
        result["geodesic_set"] = [str(b) for b in geodesic_set(alpha)]
    _emit(args, "perm", result)


def _cmd_wg(args) -> None:
    from .weingarten import weingarten_table

    # k = 6 peaks at 38 MB, its document streamed to the output; k = 7 has 49 times the entry pairs (5040^2)
    _check_k(args.k, 6)
    table = weingarten_table(args.k, args.dim)
    result = {"k": args.k, "dim": args.dim, "permutations": [str(p) for p in table.perms]}
    # a table holds p(k) distinct values: each is formatted once, and every row shares those strings
    result["gram"], result["weingarten"] = map(list, zip(*table.rows(str, lambda x: f"{x.numerator}/{x.denominator}")))
    _emit(args, "wg", result)


def _cmd_cumulants(args) -> None:
    from .moments import Expectation, cumulants

    if args.moments:
        moments = _parse_moments("--moments", args.moments, args.max_order or 0)
        phi = Expectation.from_moment_sequence(moments)
        max_order = args.max_order or len(moments)
    elif args.operator:
        m = _load_matrix(args.operator)
        phi = Expectation.normalized_trace({"A": m})
        max_order = args.max_order or 6
    else:
        raise ValueError("need --moments or --operator")
    _check_nc_size(f"--max-order {max_order}" if args.max_order else f"--moments ({max_order} moments)", max_order)
    kappa = cumulants(phi)
    source = "--moments" if args.moments else f"--operator {args.operator}"
    out_of_range = ValueError(f"{source}: the free cumulants up to order {max_order} leave the float range")
    with np.errstate(over="ignore", invalid="ignore"):  # an operator's powers may overflow: refused below
        try:
            table = {n: complex(kappa(("A",) * n)) for n in range(1, max_order + 1)}
        except OverflowError:  # an exact (Fraction) cumulant past the float range
            raise out_of_range from None
    if not np.all(np.isfinite(list(table.values()))):
        raise out_of_range
    rows = (["order", "real", "imag"], [[n, v.real, v.imag] for n, v in table.items()])
    _emit(args, "cumulants", {"kappa": {str(n): v for n, v in table.items()}}, rows=rows)


def _word_functional(args, prefix: str, k: int, first: tuple[str, int] | None = None):
    """(phi, labels, first) for channel/otoc inputs.  Labels name operators: "A"
    for every replica of a moment sequence, and for replica i of an operator
    list the position of the first equal path, so each file is loaded once.
    Every operator file must be --dim x --dim and share the size of `first`,
    the (flag and path, size) of the first file loaded, by this call when
    `first` is None; a mismatch names both files."""
    from .moments import Expectation

    ops_arg = getattr(args, f"{prefix}_ops", None)
    mom_arg = getattr(args, f"{prefix}_moments", None)
    if ops_arg:
        paths = ops_arg.split(",")
        if len(paths) == 1:
            paths *= k
        if len(paths) != k:
            raise ValueError(f"need 1 or {k} operators for --{prefix}-ops")
        labels = tuple(paths.index(path) + 1 for path in paths)
        ops, flag = {}, f"--{prefix}-ops"
        for label, path in zip(labels, paths):
            if label not in ops:
                ops[label] = _load_matrix(path, flag, args.dim)
                n = len(ops[label])
                first = first or (f"{flag} {path}", n)
                if n != first[1]:
                    raise ValueError(f"{flag}: {path} is {n}x{n}, but {first[0]} is {first[1]}x{first[1]}")
        return Expectation.normalized_trace(ops), labels, first
    if mom_arg:
        phi = Expectation.from_moment_sequence(_parse_moments(f"--{prefix}-moments", mom_arg, k))
        return phi, ("A",) * k, first
    raise ValueError(f"need --{prefix}-ops or --{prefix}-moments")


def _cmd_channel(args) -> None:
    from .channel import channel_asymptotic, channel_exact

    # one term per permutation: k = 8 exact takes 4 s and k = 9 asymptotic 7 s on a
    # 2-core x86-64 machine; one more k runs past 40 s
    _check_k(args.k, 8 if args.mode == "exact" else 9, f" for --mode {args.mode}")
    phi, labels, _ = _word_functional(args, "a", args.k)
    channel = channel_exact if args.mode == "exact" else channel_asymptotic  # argparse allows no other mode
    coeffs = channel(args.k, args.dim, phi, labels)
    out = {}
    for alpha, c in coeffs.coeffs.items():
        out[str(alpha)] = f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else complex(c)
    _emit(args, "channel", {"k": args.k, "dim": args.dim, "mode": coeffs.mode, "coefficients": out})


def _cmd_otoc(args) -> None:
    from .channel import otoc_haar

    if args.dim is None:
        _check_nc_size(f"--k {args.k}", args.k)
    else:
        _check_k(args.k, 8, " with --dim")  # the exact channel, as `channel --mode exact`
    phi_a, a_labels, first = _word_functional(args, "a", args.k)
    phi_b, b_labels, _ = _word_functional(args, "b", args.k, first)
    sources = "/".join(f"--{p}-ops" if getattr(args, f"{p}_ops") else f"--{p}-moments" for p in "ab")
    out_of_range = ValueError(f"{sources}: the {2 * args.k}-OTOC leaves the float range")
    with np.errstate(over="ignore", invalid="ignore"):  # an operator's powers may overflow: refused below
        res = otoc_haar(phi_a, phi_b, args.k, D=args.dim, a_labels=a_labels, b_labels=b_labels)
        try:
            result = {"k": args.k, "formula": complex(res.formula)}
            if res.channel is not None:
                result["dim"] = args.dim
                result["channel"] = complex(res.channel)
        except OverflowError:  # an exact (Fraction) value past the float range
            raise out_of_range from None
    if not np.all(np.isfinite([result["formula"], result.get("channel", 0)])):
        raise out_of_range
    _emit(args, "otoc", result)


def _cmd_haar_test(args) -> None:
    from .ensembles import HaarEnsemble, k_freeness_test

    _check_nc_size(f"--k {args.k}", 2 * args.k)
    A = _load_matrix(args.a, "--a", args.dim) if args.a else _default_observable(args.dim, args.seed + 101)
    B = _load_matrix(args.b, "--b", args.dim) if args.b else _default_observable(args.dim, args.seed + 202)
    est = k_freeness_test(HaarEnsemble(args.dim), A, B, args.k, n_samples=args.n_samples, seed=args.seed)
    _emit(
        args,
        "haar-test",
        {
            "estimate": complex(est.value),
            "std_error": est.std_error,
            "n_samples": est.n_samples,
            "seed": args.seed,
        },
    )


def _build_ensemble(args):
    from .ensembles import DiscreteEnsemble, HaarEnsemble, HamiltonianEnsemble, clifford_group_1q, pauli_group

    name = args.ensemble
    if name == "pauli":
        return pauli_group()
    if name == "clifford":
        return clifford_group_1q()
    if name == "haar":
        return HaarEnsemble(args.dim)
    if name == "hamiltonian":
        from .eth import build_model, goe_matrix

        # the Hamiltonian alone: the ensemble reads no observable
        model = build_model(goe_matrix(args.dim, np.random.default_rng(args.seed)))
        return HamiltonianEnsemble(model, t_max=args.t_max)
    # argparse allows no other ensemble than "files"
    if not args.unitaries:
        raise ValueError("--unitaries required for --ensemble files")
    paths = args.unitaries.split(",")
    mats = [_load_matrix(p) for p in paths]
    for path, m in zip(paths, mats):
        if m.shape != mats[0].shape:
            raise ValueError(f"--unitaries: {path} has shape {m.shape}, {paths[0]} has {mats[0].shape}")
    probs = _parse_finite_floats("--probs", args.probs) if args.probs else None
    try:
        return DiscreteEnsemble(mats, np.array(probs) if probs else None)
    except ValueError as exc:  # shapes and entries are checked: a file is not unitary, or the probabilities are bad
        bad = re.match(r"unitary (\d+)", str(exc))
        flag = f"--unitaries: {paths[int(bad[1])]}" if bad else f"--probs {args.probs}"
        raise ValueError(f"{flag}: {exc}") from None


def _ensemble_fields(args, spec) -> dict:
    """The document fields `design-check` and `distance` share."""
    from .ensembles import DiscreteEnsemble

    # n_samples counts the members averaged: none for Haar or a time window, whose channels are exact
    n_samples = len(spec.unitaries) if isinstance(spec, DiscreteEnsemble) else None
    return {"ensemble": args.ensemble, "k": args.k, "seed": args.seed, "n_samples": n_samples, "dim": spec.dim}


def _cmd_design_check(args) -> None:
    from .ensembles import design_check

    spec = _build_ensemble(args)
    report = design_check(spec, args.k, tolerance=args.tolerance)
    fields = {"passed": report.passed, "max_deviation": report.max_deviation, "tolerance": report.tolerance}
    _emit(args, "design-check", {**_ensemble_fields(args, spec), **fields})


def _cmd_distance(args) -> None:
    from .ensembles import channel_distance

    spec = _build_ensemble(args)
    dist = channel_distance(spec, args.k)
    _emit(args, "distance", {**_ensemble_fields(args, spec), "distance": dist})


def _check_model_dim(args) -> None:
    """Refuse a built-in model past eth.DEFAULT_DIM_CAP before its matrix exists."""
    from .eth import DEFAULT_DIM_CAP

    if args.model == "goe" and args.dim > DEFAULT_DIM_CAP:
        raise ValueError(f"--dim {args.dim} exceeds the dimension cap {DEFAULT_DIM_CAP}")
    if args.model == "ising" and args.length > DEFAULT_DIM_CAP.bit_length() - 1:
        raise ValueError(f"--length {args.length} gives dimension 2^{args.length}, past the cap {DEFAULT_DIM_CAP}")


def _eth_model(args):
    from .eth import build_model, goe_model, ising_model, to_eigenbasis

    if args.model == "goe":
        try:
            model = goe_model(args.dim, seed=args.seed)
        except ValueError as exc:  # D = 1: a 1 x 1 observable has no traceless part
            raise ValueError(f"--dim {args.dim}: {exc}") from None
    elif args.model == "ising":
        model = ising_model(args.length)
    else:
        h = _load_matrix(args.model)
        model = build_model(h, provenance=f"file({args.model})")
    for name, raw in _eth_obs_files(args, model.dim):
        model.observables[name] = to_eigenbasis(model.basis, raw)
    return model


def _eth_obs_files(args, dim: int):
    """(name, matrix) for each --obs NAME=path, each checked to be dim x dim."""
    for assignment in args.obs or []:
        name, _, path = assignment.partition("=")
        if not path:
            raise ValueError(f"bad --obs {assignment!r}; want NAME=path")
        raw = _load_matrix(path)
        if raw.shape[0] != dim:
            raise ValueError(f"--obs {name}: {path} is {raw.shape[0]}x{raw.shape[0]}, but the Hamiltonian is {dim}x{dim}")
        yield name, raw


def _eth_build(args) -> dict:
    """The `eth build` document: spectral statistics of the sorted energies
    from `eigvalsh`, so no eigenvectors and no model are built."""
    from .eth import (
        GOE_OBSERVABLES,
        ISING_OBSERVABLES,
        _goe_provenance,
        _ising_provenance,
        goe_matrix,
        hamiltonian_energies,
        ising_hamiltonian,
        level_spacing_ratio,
        resonance_report,
        spectral_width,
    )

    if args.model == "goe":
        h = goe_matrix(args.dim, np.random.default_rng(args.seed))
        provenance, names = _goe_provenance(args.dim, args.seed), set(GOE_OBSERVABLES)
    elif args.model == "ising":
        h = ising_hamiltonian(args.length)
        provenance, names = _ising_provenance(args.length), set(ISING_OBSERVABLES)
    else:
        h = _load_matrix(args.model)
        provenance, names = f"file({args.model})", set()
    energies = hamiltonian_energies(h)
    del h  # freed before any --obs file loads
    names.update(name for name, _ in _eth_obs_files(args, len(energies)))
    return {
        "dim": len(energies),
        "provenance": provenance,
        "spectral_width": spectral_width(energies),
        "level_spacing_ratio": level_spacing_ratio(energies),
        "observables": sorted(names),
        "resonances": resonance_report(energies, seed=args.seed),
    }


def _eth_obs_pair(args, model):
    names = list(model.observables)
    a = args.obs_a or (names[0] if names else None)
    b = args.obs_b or (names[1] if len(names) > 1 else a)
    if a is None:
        raise ValueError("model has no observables; pass --obs NAME=path")
    for flag, name in (("--obs-a", a), ("--obs-b", b)):
        if name not in model.observables:
            raise ValueError(f"{flag}: unknown observable {name!r} (known: {', '.join(sorted(names))})")
    return a, b


def _cmd_eth(args) -> None:
    from .eth import (
        WINDOW_BYTES_CAP,
        DeutschSpec,
        TimeWindow,
        deutsch_ensemble,
        factorization_gap,
        free_k_time,
        goe_matrix,
        thermal_cumulant_scan,
        thermal_state,
        time_average,
        window_bytes,
    )

    action = args.action
    _check_model_dim(args)
    if action in ("cumulant", "freetime"):
        _check_nc_size(f"--k {args.k}", 2 * args.k)
    if action == "timeavg" and args.t_max is None:
        # a strict average contracts one einsum per partition of the slots into balanced blocks,
        # 1,496 at k = 5 and 22,482 at k = 6: about 1.2 s and 27 s a run, and k = 7's 426,833 run far past 40 s
        _check_k(args.k, 6, " for the infinite window")
    if action == "cumulant" and args.t_max is None:
        raise ValueError("eth cumulant needs --t-max")
    if action in ("timeavg", "freetime", "appendixb") and args.t_max is not None and args.t_max <= 0:
        raise ValueError(f"--t-max must be > 0 (got {args.t_max})")
    if action != "build":
        model = _eth_model(args)
        # e^{iEt} has no limit as t grows, so a time grid whose phases overflow is refused
        t_phase = (args.t_max or 0.0) * float(np.max(np.abs(model.energies)))
        if action in ("cumulant", "freetime") and not math.isfinite(t_phase):
            raise ValueError(f"--t-max {args.t_max} puts the phases E t past the float range")
        state = thermal_state(model, args.beta)
        a, b = _eth_obs_pair(args, model)
    if action in ("timeavg", "appendixb"):
        window = TimeWindow("infinite") if args.t_max is None else TimeWindow("finite", args.t_max)
    if action == "build":
        result = _eth_build(args)
    elif action == "cumulant":
        times = np.linspace(0.0, args.t_max, args.n_points)
        values = thermal_cumulant_scan(model, state, a, b, args.k, times).tolist()
        scan = [[float(t), v.real, v.imag, 0.0] for t, v in zip(times, values)]
        result = {"k": args.k, "beta": args.beta, "scan": scan}
    elif action == "timeavg":
        if window.mode == "finite" and model.dim > 1:  # a window of 2k slots holds window_bytes(D, 2k)
            k_max = next(k for k in itertools.count(1) if window_bytes(model.dim, 2 * k + 2) > WINDOW_BYTES_CAP)
            _check_k(args.k, k_max, f" for a finite window at D = {model.dim}")
        word = tuple(x for _ in range(args.k) for x in ((a, True), (b, False)))
        v = time_average(model, state, word, window)
        result = {"k": args.k, "beta": args.beta, "mode": window.mode, "value": complex(v)}
    elif action == "freetime":
        width = model.spectral_width()
        t_max = args.t_max if args.t_max is not None else (40.0 / width if width else math.inf)
        if not math.isfinite(t_max):  # the default grid of a zero or subnormal width
            raise ValueError(f"the spectral width {width:g} sets no default grid (up to 40/width); pass --t-max")
        res = free_k_time(model, state, a, b, args.k, np.linspace(0.0, t_max, args.n_points), threshold=args.threshold)
        scan = [[float(t), float(m), 0.0, 0.0] for t, m in zip(res.times, res.magnitudes)]
        result = {"k": args.k, "reached": res.reached, "free_time": res.time, "threshold": res.threshold, "scan": scan}
    elif action == "appendixb":
        held = window_bytes(model.dim, 4)  # the joint average has 4 slots
        if window.mode == "finite" and held > WINDOW_BYTES_CAP:
            raise ValueError(
                f"--t-max at D = {model.dim}: the finite window holds about {held / 2**30:.1f} GiB, past the"
                f" {WINDOW_BYTES_CAP / 2**30:g} GiB budget; lower --dim or drop --t-max"
            )
        joint, product, gap = factorization_gap(model, state, a, b, window)
        result = {"joint": complex(joint), "product": complex(product), "gap": complex(gap), "mode": window.mode}
    elif action == "deutsch":
        rng = np.random.default_rng(args.seed + 7)
        pert = goe_matrix(model.dim, rng)
        lambdas = _parse_finite_floats("--lambdas", args.lambdas or "1,2")
        strength = args.strength if args.strength is not None else model.dim**-0.5
        # Gershgorin: the perturbed levels, their gaps to the base ones and the band
        # profile's bins stay below 4 (max|E| + |c lambda| D max|H'|)
        lam = max(map(abs, lambdas))
        shift = abs(strength) * lam * model.dim * float(np.max(np.abs(pert)))
        if not math.isfinite(4 * (float(np.max(np.abs(model.energies))) + shift)):
            raise ValueError(f"--strength {strength} times --lambdas entry {lam} puts H + c lambda H' out of float range")
        spec = DeutschSpec(perturbation=pert, strength=strength, lambdas=lambdas, beta=args.beta)
        report = deutsch_ensemble(model, spec, observable=a)
        result = {
            "lambdas": list(report.lambdas),
            "mixed_kappa4": {f"{l1},{l2}": complex(v) for (l1, l2), v in report.mixed_kappa4.items()},
            "row_sum_max_error": max(float(np.max(np.abs(o.sum(axis=1) - 1.0))) for o in report.overlaps.values()),
        }
    rows = (["t", "real", "imag", "std_error"], result["scan"]) if "scan" in result else None
    _emit(args, f"eth {action}", result, rows)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


ENSEMBLES = ("pauli", "clifford", "haar", "hamiltonian", "files")
_N_SAMPLES_HELP = "checked to be positive, but no ensemble reads it: discrete, Haar and --t-max window channels are exact"


def _add_common(sub) -> None:
    sub.add_argument("--output", help="write the result document to this path")
    sub.add_argument("--format", choices=["json", "csv", "text"], default="json")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", help="key = value defaults file; flags override")


def build_parser() -> _Parser:
    parser = _Parser(prog="kfree", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kfree {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("nc", help="non-crossing partitions, Moebius tables, Kreweras pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--moebius", action="store_true")
    p.add_argument("--kreweras", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_nc)

    p = subs.add_parser("perm", help="cycle structure, length, geodesics, NC embedding")
    p.add_argument("--perm", required=True, help="one-line notation, e.g. 2,3,1")
    p.add_argument("--geodesic", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_perm)

    p = subs.add_parser("wg", help="exact Gram and Weingarten tables")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_wg)

    p = subs.add_parser("cumulants", help="free cumulants from moments or an operator file")
    p.add_argument("--moments", help="comma separated <A>, <A^2>, ...")
    p.add_argument("--operator", help="dense operator file (.json/.bin)")
    p.add_argument("--max-order", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_cumulants)

    p = subs.add_parser("channel", help="k-fold Haar channel coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "asymptotic"], default="exact")
    p.add_argument("--a-ops", dest="a_ops", help="comma separated operator files (1 or k)")
    p.add_argument("--a-moments", dest="a_moments", help="moment sequence for identical inputs")
    p.add_argument("--ops", dest="a_ops", help="alias for --a-ops")
    p.add_argument("--moments", dest="a_moments", help="alias for --a-moments")
    _add_common(p)
    p.set_defaults(func=_cmd_channel)

    p = subs.add_parser("otoc", help="Haar-averaged 2k-OTOC, both evaluation paths")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--a-ops", dest="a_ops")
    p.add_argument("--a-moments", dest="a_moments")
    p.add_argument("--b-ops", dest="b_ops")
    p.add_argument("--b-moments", dest="b_moments")
    _add_common(p)
    p.set_defaults(func=_cmd_otoc)

    p = subs.add_parser("haar-test", help="Monte Carlo freeness probe under Haar")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=2000)
    p.add_argument("--a", help="operator file for A (default: seeded GOE observable)")
    p.add_argument("--b", help="operator file for B")
    _add_common(p)
    p.set_defaults(func=_cmd_haar_test)

    p = subs.add_parser("design-check", help="compare an ensemble channel with Haar")
    p.add_argument("--ensemble", required=True, choices=ENSEMBLES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--t-max", dest="t_max", type=float, default=100.0)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=1000, help=_N_SAMPLES_HELP)
    p.add_argument("--unitaries", help="comma separated unitary files")
    p.add_argument("--probs", help="comma separated probabilities")
    _add_common(p)
    p.set_defaults(func=_cmd_design_check)

    p = subs.add_parser("distance", help="Frobenius distance to the Haar channel")
    p.add_argument("--ensemble", required=True, choices=ENSEMBLES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--t-max", dest="t_max", type=float, default=1000.0)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=1000, help=_N_SAMPLES_HELP)
    p.add_argument("--unitaries")
    p.add_argument("--probs")
    _add_common(p)
    p.set_defaults(func=_cmd_distance)

    p = subs.add_parser("eth", help="exact-diagonalization freeness machinery")
    p.add_argument("action", choices=["build", "cumulant", "timeavg", "freetime", "appendixb", "deutsch"])
    p.add_argument("--model", default="goe", help="goe | ising | operator file with H")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--length", type=int, default=8, help="chain length for the ising model")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--obs", action="append", help="NAME=path observable assignment (repeatable)")
    p.add_argument("--obs-a", dest="obs_a")
    p.add_argument("--obs-b", dest="obs_b")
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--n-points", dest="n_points", type=int, default=41)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--lambdas", help="comma separated couplings for deutsch")
    p.add_argument("--strength", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_eth)

    return parser


def _load_config(path: str) -> dict:
    values: dict[str, object] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}; want key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        for cast in (int, float):
            try:
                values[key] = cast(val)
                break
            except ValueError:
                continue
        else:
            values[key] = {"true": True, "false": False}.get(val.lower(), val)
    return values


_NUMBER = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?(?:/\d+)?|inf|nan)"  # a number or a fraction
_NEGATIVE_VALUE = re.compile(rf"-{_NUMBER}(?:,[+-]?{_NUMBER})*", re.IGNORECASE)


def dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--config" in argv[:-1]:  # a trailing --config is left to argparse, which refuses it
        # config entries become trailing options, so explicit flags win and
        # subparser defaults cannot clobber them
        try:
            cfg = _load_config(argv[argv.index("--config") + 1])
        except (FileNotFoundError, ValueError) as exc:
            print(f"kfree: bad --config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        for key, val in cfg.items():
            opt = "--" + key.replace("_", "-")
            if opt in argv:
                continue
            if isinstance(val, bool):
                if val:
                    argv.append(opt)
            else:
                argv.extend([opt, str(val)])
    # argparse takes a value such as -1e-3 or -1,2 for a flag of its own: glue it to its flag
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[\w-]+", argv[i - 1]) and _NEGATIVE_VALUE.fullmatch(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_domains(args)
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        if args.format == "csv" and command not in CSV_COMMANDS:
            raise ValueError(f"--format csv is only for tabular results ({', '.join(CSV_COMMANDS)}), not {command}")
        args.func(args)
    except RegimeError as exc:
        print(f"kfree: regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"kfree: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
