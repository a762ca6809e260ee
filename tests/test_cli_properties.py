"""Property test of the whole command line, run in-process: whatever the
subcommand, growth spec and numeric flags (zero, negative, tiny, 1e+-300,
nan, inf), an invalid choice, an unreadable config file or an unknown flag,
``cli.main`` exits 0, 1 or 2, writes at most one line to stderr
with no traceback or warning, and every JSON file it writes is strict JSON."""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tauberlab import cli

EDGE_REALS = ["0", "-1", "-1e300", "1e-300", "1e300", "nan", "inf", "-inf"]
EDGE_COUNTS = ["-1", "0"]
FAMILIES = ["poly:beta", "exp:alpha", "const:m0", "log:m0"]
# a growth spec: sane, or one of the families with an edge parameter
SPEC = (["poly:beta=2", "poly:beta=1.5", "exp:alpha=1", "const:m0=1", "log:m0=1"],
        [f"{family}={value}" for family in FAMILIES for value in EDGE_REALS])


def real(*sane):
    return list(sane), EDGE_REALS


def count(*sane):  # counts stay small, so an example runs in well under a second
    return list(sane), EDGE_COUNTS


def choice(*values):  # the edge value is no choice at all
    return list(values), ["bogus"]


# a flag no subcommand has: never set, except as the edge flag
UNKNOWN = {"--frobnicate": ([], ["1"])}
# a flag every subcommand has, likewise: a config file that cannot be read
CONFIG = {"--config": ([], ["no-such-dir/run.cfg", "."])}
# the subcommands that write no file, and so take no --out
NO_OUT = ("rate", "invert")


_T_GRID = {"--t-min": real("2", "30"), "--t-max": real("1e3", "1e4"), "--t-count": count("4")}
# (sane values, edge values) per flag; verify takes no flag but --seed and
# --out, and acceptance 10 runs it
FLAGS = {
    "rate": {"--m": SPEC, "--k": SPEC, "--t": real("30", "1e3")},
    "invert": {"--m": SPEC, "--t": real("30", "1e3")},
    "specialfn": {"--m0": real("0.5", "2")},
    "witness": {"--m": SPEC, "--k": SPEC, "--t": real("30", "1e3"), "--eps": real("0.5", "1"),
                "--r-max": real("30", "1e3"), "--prescribed-c": real("0.5", "2"),
                "--variant": choice("plain", "derivative")},
    "sweep": {"--m": SPEC, "--k": SPEC, **_T_GRID, "--eps": real("0.5", "1"),
              "--r-max": real("30", "1e3"), "--prescribed-c": real("0.5", "2"),
              "--variant": choice("plain", "derivative")},
    "truncate": {"--m": SPEC, "--r": real("2", "8"), "--t": real("2", "5"),
                 "--n-lambda": count("3", "10"), "--seed": count("0", "3")},
    "semigroup": {"--m": SPEC, "--kind": choice("mult", "shift"), **_T_GRID,
                  "--freq-count": count("4", "20"), "--freq-base": real("1.5", "2"),
                  "--eps": real("0.5", "1"), "--r-max": real("30", "1e3"),
                  "--c": real("1", "2"), "--c-choice": real("1", "2")},
}
# per semigroup --kind, the flags that only that kind reads
KIND_FLAGS = {"mult": ("--freq-count", "--freq-base"), "shift": ("--eps", "--r-max")}


# set whenever not drawn as an edge value: --m and --t are often required,
# a t-count left out would be the default 25, and a drawn kind must be given
ALWAYS = ("--m", "--t", "--t-count", "--kind")


@st.composite
def argvs(draw):
    """A subcommand with one flag set to an edge value and the others either
    left out or set to sane values, so that the edge value reaches the code
    that consumes it (a choice flag's edge value is an invalid choice, and
    the edge flag may be an unknown flag: both are usage errors, which
    must end in one line too)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**FLAGS[command], **CONFIG, **UNKNOWN}
    edgy = draw(st.sampled_from(sorted(flags)))
    if command == "semigroup" and edgy != "--kind":
        # the chosen kind's flags, so that their values reach its code; the
        # other kind's only as the edge flag, whose refusal is exit 2
        kind = draw(st.sampled_from(sorted(KIND_FLAGS)))
        other = [f for k, kind_flags in KIND_FLAGS.items() if k != kind for f in kind_flags]
        flags = {flag: ([kind], []) if flag == "--kind" else values
                 for flag, values in flags.items() if flag == edgy or flag not in other}
    argv = [command]
    for flag, (sane, edge) in flags.items():
        if flag == edgy:
            argv.append(f"{flag}={draw(st.sampled_from(edge))}")  # '=' keeps '-1e300' a value
        elif sane and (flag in ALWAYS or draw(st.booleans())):
            argv.append(f"{flag}={draw(st.sampled_from(sane))}")
    if command == "witness" and draw(st.booleans()):
        argv.append("--with-kappa")
    return argv


def _strict(token):
    pytest.fail(f"non-standard JSON token {token}")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_exits_cleanly_with_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv + ([] if argv[0] in NO_OUT else ["--out", tmp]))
        for path in Path(tmp).rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_strict)
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, lines
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
