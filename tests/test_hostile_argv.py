"""A seeded generator of hostile argument vectors for the command line.

Each case is one subcommand with a random choice of its options, read
from the parser itself so that every subcommand and option is reached.
Each option gets a value that fits it or an edge value: nan, inf, -0,
2**128, an empty string, a count far past n (``--u``, ``--r``, the
constructor parameters), a missing file or a directory.  The case runs
through ``cli.main`` with stdout and stderr captured, without
``--output``, under a ``signal.alarm``.  It must exit 0, 2 (argparse or a
usage error), 3, 4 or 5, raise nothing else and finish before its alarm.

Left out, because the work they ask for has no bound: ``--trials`` past
1000 (``simulate --trials 2**128`` runs until it is killed, and the work
grows with the count) and ``--guard 2**128`` (an exhaustive census as
large as the search needs).

Tier-1 runs a fixed seed and case count; a larger budget runs as

    PYTHONPATH=src:tests python -c 'import test_hostile_argv as t; print(t.run_cases(SEED, CASES))'
"""

import argparse
import contextlib
import io
import random
import signal
from collections import Counter
from pathlib import Path

from pgblrc import cli, geometry

SEED = 3
CASES = 250
ALARM_S = 10
EXITS = {0, 2, 3, 4, 5}

FIXTURES = Path(__file__).parent / "fixtures"
EDGE_VALUES = ["nan", "inf", "-0", "", str(2**128), str(10**6), "-1", "1/3", "x"]
# values that get a case past parsing, by option
FITTING = {
    "file": [str(FIXTURES / "fano.txt"), str(FIXTURES / "ag23.txt"),
             str(FIXTURES / "absent.txt"), str(FIXTURES)],
    "s": ["2", "3"], "q": ["2", "3", "4"],
    "guard": ["1000", "1000000"],
    "p": ["0.1", "1"], "u": ["1", "3", "100"], "trials": ["1", "16", "1000"],
    "seed": ["0", "7"],
    "r": ["3", "2..5", "100"], "a": ["2", "2,4"],
    "max_n": ["100", "4700"], "min_rate": ["1/3", "0"],
}
LEFT_OUT = {"trials": {str(2**128), str(10**6)}, "guard": {str(2**128)}}
# each constructor's parameter
PARAMS = {name: row[0] for name, row in geometry._CONSTRUCTORS.items()}


def _subcommands() -> dict[str, list[argparse.Action]]:
    """Each subcommand's actions, less help and ``--output``."""
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: [action for action in sub._actions
                   if not isinstance(action, argparse._HelpAction) and action.dest != "output"]
            for name, sub in sorted(subparsers.choices.items())}


def _value(rng: random.Random, action: argparse.Action) -> str:
    if action.choices and rng.random() < 0.8:
        return rng.choice(list(action.choices))
    fitting = FITTING.get(action.dest)
    if fitting and rng.random() < 0.6:
        return rng.choice(fitting)
    return rng.choice([value for value in EDGE_VALUES
                       if value not in LEFT_OUT.get(action.dest, ())])


def _argv(rng: random.Random, name: str, actions: list[argparse.Action]) -> list[str]:
    """One argument vector for the subcommand: a positional always, each
    option half the time, a flag bare.  In half the cases the source is
    given alone: the constructor's own parameter, or else ``--file``."""
    alone = rng.random() < 0.5
    family = None
    argv = [name]
    # the constructor first, so that its parameter is known
    for action in sorted(actions, key=lambda action: action.dest != "geometry"):
        if alone and action.dest in ("file", *PARAMS.values()):
            if action.dest != PARAMS.get(family, "file"):
                continue
        elif action.option_strings and rng.random() < 0.5:
            continue
        argv += action.option_strings[:1]
        if action.nargs != 0:
            argv.append(_value(rng, action))
        if action.dest == "geometry":
            family = argv[-1]
    return argv


class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm


def run_case(argv: list[str]) -> int:
    """The exit of ``cli.main(argv)`` with its output captured, or of
    argparse's ``SystemExit``; an alarm, or any other exception, fails."""
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except _Alarm:
        raise AssertionError(f"{argv}: ran past its {ALARM_S} s alarm") from None
    except Exception as exc:
        raise AssertionError(f"{argv}: {type(exc).__name__}: {exc}") from exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in EXITS and "Traceback" not in err.getvalue(), (argv, code, err.getvalue())
    return code


def run_cases(seed: int, cases: int) -> Counter:
    """Run ``cases`` argument vectors drawn from ``seed``; returns the count
    of each exit."""
    rng = random.Random(seed)
    subcommands = _subcommands()
    names = list(subcommands)
    exits = Counter()
    for _ in range(cases):
        name = rng.choice(names)
        exits[run_case(_argv(rng, name, subcommands[name]))] += 1
    return exits


def test_hostile_argument_vectors_exit_with_a_documented_code():
    exits = run_cases(SEED, CASES)
    # success, usage, validation and file refusals all occur
    assert all(exits[code] >= 5 for code in (0, 2, 3, 5)), exits
