"""Argv fuzzing of `kfree`: whatever the flags, `dispatch` exits 0, 1 or 2
without an escaping exception or a warning, an error is one stderr line,
and a success writes a JSON document.

Every run stays small: sizes come from {-1, 0, 1, 2, 3, x}, and each size
flag whose default is large (`--dim`, `--length`, `--n-samples`,
`--n-points`) is always passed.  No `--output` or `--config` is generated.
"""

import contextlib
import io
import json
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfree.cli import dispatch


def domain(valid, invalid):
    """Values of one flag, mostly valid: an invalid one turns up about one draw in four."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid + invalid))


SIZE = domain(("1", "2", "3"), ("-1", "0", "x"))
REAL = domain(("0.5", "0", "-1", "1e308", "1e-320"), ("nan", "inf", "-inf", "1e309"))
MOMENTS = domain(("0,1", "1,2,3", "0,1,0,2"), ("1/3,x", "nan,1"))
ENSEMBLE = domain(("pauli", "clifford", "haar", "hamiltonian"), ("bogus",))
SWITCH = st.none()  # a store_true flag, passed bare

# subcommand -> (argv heads, {flag: values}, flags always passed, flags argparse requires)
COMMANDS = {
    "nc": ([["nc"]], {"--n": SIZE, "--count": SWITCH, "--moebius": SWITCH, "--kreweras": SWITCH}, (), ("--n",)),
    "perm": (
        [["perm"]],
        {"--perm": domain(("2,3,1", "1", "2,1,4,3"), ("1,1", "0", "x", ",")), "--geodesic": SWITCH},
        (), ("--perm",),
    ),
    "wg": ([["wg"]], {"--k": SIZE, "--dim": SIZE}, (), ("--k", "--dim")),
    "cumulants": ([["cumulants"]], {"--moments": MOMENTS, "--max-order": SIZE}, ("--moments",), ()),
    "channel": (
        [["channel"]],
        {"--k": SIZE, "--dim": SIZE, "--mode": domain(("exact", "asymptotic"), ("foo",)), "--moments": MOMENTS},
        ("--moments",), ("--k", "--dim"),
    ),
    "otoc": (
        [["otoc"]],
        {"--k": SIZE, "--dim": SIZE, "--a-moments": MOMENTS, "--b-moments": MOMENTS},
        ("--a-moments", "--b-moments"), ("--k",),
    ),
    "haar-test": (
        [["haar-test"]],
        {"--dim": SIZE, "--k": SIZE, "--n-samples": SIZE, "--seed": st.sampled_from(("0", "3"))},
        ("--n-samples",), ("--dim",),
    ),
    "design-check": (
        [["design-check"]],
        {"--ensemble": ENSEMBLE, "--k": SIZE, "--dim": SIZE, "--n-samples": SIZE, "--t-max": REAL, "--tolerance": REAL},
        ("--dim", "--n-samples"), ("--ensemble", "--k"),
    ),
    "distance": (
        [["distance"]],
        {"--ensemble": ENSEMBLE, "--k": SIZE, "--dim": SIZE, "--n-samples": SIZE, "--t-max": REAL},
        ("--dim", "--n-samples"), ("--ensemble", "--k"),
    ),
    "eth": (
        [["eth", action] for action in ("build", "cumulant", "timeavg", "freetime", "appendixb", "deutsch", "bogus")],
        {"--model": st.sampled_from(("goe", "ising")), "--dim": SIZE, "--length": SIZE, "--k": SIZE, "--n-points": SIZE,
         "--beta": REAL, "--t-max": REAL, "--threshold": REAL, "--strength": REAL,
         "--lambdas": domain(("1,2",), ("1,x",))},
        ("--model", "--dim", "--length", "--n-points"), (),
    ),
}
UNKNOWN = ((),) * 6 + (("--bogus",), ("--bogus=1",), ("-x",))


@st.composite
def argvs(draw):
    heads, flags, always, required = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    argv = list(draw(st.sampled_from(heads)))
    dropped = draw(st.sampled_from((None,) * 6 + required))
    for flag, values in flags.items():
        keep = flag in always or flag in required or draw(st.booleans())
        if keep and flag != dropped:
            value = draw(values)
            argv.append(flag if value is None else f"{flag}={value}")
    return argv + list(draw(st.sampled_from(UNKNOWN)))


@settings(max_examples=600, deadline=None, derandomize=True)
@example(["eth", "timeavg", "--model", "goe", "--dim", "8", "--k", "1", "--beta", "-1e-3"])
@example(["cumulants", "--moments", "-1,2"])
@example(["otoc", "--k", "2", "--a-moments", "-1,2", "--b-moments", "0,1"])
@given(argvs())
def test_any_argv_exits_0_1_or_2_with_one_line_errors(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = dispatch(argv)
    # a warning would be stderr lines of its own in a `kfree` process
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
