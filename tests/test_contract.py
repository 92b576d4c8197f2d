"""Every input that passes validation ends in a result or in a named error.

The strategy draws profiles over the whole valid domain and past its
edges: theorems 1-8 at order 1, 2, 3, 5 or uniform in 1-60, with

- L0 from 1 + 10^U(-15, -1), U(1, 10) or 10^U(1, 100);
- L_k from {0, U(0, 2), 10^U(-300, 2), 10^U(2, 150), 5e-324};
- M from {1, 1 + 10^U(-16, -1), U(1, 10), 10^U(1, 150)};
- m* from {1 + 10^U(-16, -1), U(1, 30), 10^U(1, 300)}.

Some draws are invalid (L0 = 1, m* = 1, theorems 4 and 8 at order 1, a
weight that overflows); those must end in exit code 2 with one
``error:`` line.  ``verify`` must never exit 1: every draw's witness is
admissible, so a failed check would be a false alarm.

On the same draws every solved profile has rho/2 <= sigma <= rho, which
the concave margin guarantees (``radii`` module docstring).
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from polylandau import PolyLandauError
from polylandau.cli import EXIT_OK, EXIT_USAGE, _build_profile, _compute_radii, main


def _pow10(e: float) -> float:
    return 10.0**e


_NEAR_ONE = st.floats(-16.0, -1.0).map(lambda e: 1.0 + 10.0**e)
_LEAD = st.one_of(st.floats(-15.0, -1.0).map(lambda e: 1.0 + 10.0**e), st.floats(1.0, 10.0),
                  st.floats(1.0, 100.0).map(_pow10))
_LIST_FLAGS = {
    "lambdas": st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(-300.0, 2.0).map(_pow10),
                         st.floats(2.0, 150.0).map(_pow10), st.just(5e-324)),
    "ms": st.one_of(st.just(1.0), _NEAR_ONE, st.floats(1.0, 10.0), st.floats(1.0, 150.0).map(_pow10)),
    "mstars": st.one_of(_NEAR_ONE, st.floats(1.0, 30.0), st.floats(1.0, 300.0).map(_pow10)),
}
_LIST_FLAG = {1: "lambdas", 2: "lambdas", 3: "ms", 4: "ms", 5: "lambdas", 6: "lambdas", 7: "mstars", 8: "mstars"}


@st.composite
def _profiles(draw):
    """(theorem, order, L0 or None, the list flag's bounds), with order bounds above L0 and order - 1 beside it."""
    theorem = draw(st.integers(1, 8))
    order = draw(st.one_of(st.sampled_from([1, 2, 3, 5]), st.integers(1, 60)))
    lam0 = draw(_LEAD) if theorem in (1, 4, 5, 8) else None
    count = order if theorem in (3, 7) else order - 1
    bounds = draw(st.lists(_LIST_FLAGS[_LIST_FLAG[theorem]], min_size=count, max_size=count))
    return theorem, order, lam0, tuple(bounds)


def _argv(theorem: int, order: int, lam0, bounds, swept: str | None = None) -> list[str]:
    """The profile's flags; the swept flag, if any, becomes a 3-row range from its first value."""

    def value(flag: str, v: str) -> str:
        if flag != swept:
            return v
        start = float(v.split(",")[0]) if v else 0.0
        step = max(start * 2.0**-6, 2.0**-8)
        return f"{start!r}:{start + 2.5 * step!r}:{step!r}"

    argv = ["--theorem", str(theorem), "-p", str(order)]
    if lam0 is not None:
        argv += ["--lambda0", value("lambda0", repr(lam0))]
    flag = _LIST_FLAG[theorem]
    if bounds or flag == swept:
        argv += [f"--{flag}", value(flag, ",".join(repr(v) for v in bounds))]
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main would be a traceback on the command line
    return code, out.getvalue(), err.getvalue()


@given(_profiles())
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
@example((1, 1, 1.0000000000001, ()))  # D11: the audit failed the lead within ulps of its bound
@example((3, 1, None, (1.000001,)))  # D12: rho far from the root beside the pole
@example((3, 1, None, (1.0000000000026004,)))  # residual 8.2e-11, so flagged
@example((1, 2, 1.0000001, (0.0,)))  # D4
@example((4, 1, 2.0, ()))  # theorem 4 needs two components
@example((7, 2, None, (1.0, 2.0)))  # m* = 1
def test_every_valid_input_ends_in_a_result_or_a_named_error(profile):
    theorem, order, lam0, bounds = profile
    flags = _argv(*profile)
    swept = "lambda0" if lam0 is not None else _LIST_FLAG[theorem]
    runs = [
        ["radii", *flags, "--digits", "17", "--format", "json"],
        ["verify", *flags, "--grid", "8x16", "--boundary-samples", "64"],
        ["table", *_argv(*profile, swept=swept)],
    ]
    for argv in runs:
        code, out, err = _run(argv)
        if code == EXIT_OK:
            assert err == "", argv
        else:
            assert code == EXIT_USAGE, (argv, code, out)  # exit 1 from verify is a false alarm
            assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, (argv, err)
        if argv[0] == "radii" and code == EXIT_OK:
            doc = json.loads(out)
            assert (doc["residual"] > 1e-12) == ("residual-above-contract" in doc["flags"]), argv


@given(_profiles())
@settings(deadline=None)  # max_examples from the profile: 2000 under --hypothesis-profile=ci
@example((2, 2, None, (2.0,)))  # a linear margin: sigma = rho/2 exactly
@example((1, 1, 1e13, ()))  # sigma = rho/2 to rounding, rho = 1e-13
@example((3, 1, None, (1.0,)))  # the identity: sigma = rho = 1
def test_sigma_lies_between_half_rho_and_rho(profile):
    # m is concave with m(0) = 1 and m(rho) >= 0, so 1 - r/rho <= m <= 1 on [0, rho]; 2^-50 allows a few ulp
    theorem, _, lam0, bounds = profile
    try:
        res = _compute_radii(theorem, _build_profile(theorem, lam0, bounds))
    except PolyLandauError:  # an invalid draw, which the CLI names (test above)
        return
    assert 0.5 * res.rho * (1.0 - 2.0**-50) <= res.sigma <= res.rho * (1.0 + 2.0**-50), (profile, res)
