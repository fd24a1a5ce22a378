"""A seeded mutator for incidence text.

Each case is the canonical text of a small base geometry with one to
three mutations: a token replaced, inserted or deleted; two tokens
joined by a separator other than a space or tab; a line duplicated,
deleted or swapped with another; a huge, negative, non-ASCII or
non-integer token; or hostile declared counts.  It runs ``from_text`` ->
``validate_pg`` -> ``build_code`` -> geometric ``repair_profile`` -> a
seeded 10-trial iid ``simulate_availability``, and must either finish or
be refused with one of the ``pgblrc.errors`` types.  What ``from_text``
accepts must read as ``strict_read`` reads it.  Where the line records
read as one rectangular integer array, the structure built from that
array must equal the one built from the records as tuples, or both must
be refused alike.

Tier-1 runs a fixed seed and case count; a larger budget runs as

    PYTHONPATH=src:tests python -c 'import test_hostile_text as t; t.run_cases(SEED, CASES)'
"""

import random
import re

import numpy as np

from pgblrc import errors
from pgblrc.code import build_code
from pgblrc.geometry import (
    dual,
    from_text,
    grid,
    hyperoval_gq,
    symplectic_gq,
    to_text,
    validate_pg,
)
from pgblrc.repair import repair_profile, simulate_availability

from oracles import structure_or_refusal

REFUSALS = tuple(getattr(errors, name) for name in errors.__all__)
SEED = 12
CASES = 4000

HOSTILE_TOKENS = [
    str(2**128), str(2**63), str(-2**63 - 1), "-1", "-0", "+3", "1_0",
    "\u0663", "\uff13", "\u00e9", "\u00a0", "1.5", "1e3", "0x10", "nan", "inf", "#", "-",
]
# what str.splitlines or str.split would break a line or a record at
SEPARATORS = ["\x1f", "\x0b", "\x1c", "\x85", "\u2028", "\r"]
HOSTILE_COUNTS = [
    "0 0", "-1 4", "4 -1", str(10**12), f"{10**12} 6", f"9 {10**12}",
    f"{2**128} 6", "6 6 6", "a b", "", "\u0669 6",
]


def _bases():
    return [to_text(inc).splitlines()
            for inc in (grid(2), symplectic_gq(2), dual(grid(3)), hyperoval_gq(4))]


def _mutate(rng: random.Random, lines: list[str]) -> None:
    """One mutation, in place, of a text given as its lines."""
    if not lines:
        lines.append(rng.choice(HOSTILE_COUNTS))
        return
    k = rng.randrange(len(lines))
    tokens = lines[k].split()
    token = rng.choice([*HOSTILE_TOKENS, str(rng.randint(-2, 70))])
    kind = rng.randrange(10)
    if kind == 9 and len(tokens) > 1:
        i = rng.randrange(len(tokens) - 1)
        tokens[i:i + 2] = [rng.choice(SEPARATORS).join(tokens[i:i + 2])]
    elif kind == 0 and tokens:
        tokens[rng.randrange(len(tokens))] = token
    elif kind == 1:
        tokens.insert(rng.randint(0, len(tokens)), token)
    elif kind == 2 and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif kind == 3:
        lines.insert(k, lines[k])
        return
    elif kind == 4:
        del lines[k]
        return
    elif kind == 5:
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
        return
    elif kind == 6:
        # the header is the first line that is no comment
        header = next((i for i, line in enumerate(lines) if not line.startswith("#")), 0)
        lines[header] = rng.choice(HOSTILE_COUNTS)
        return
    elif kind == 7 and tokens:
        # a point moved by one, keeping every count
        i = rng.randrange(len(tokens))
        tokens[i] = str(int(tokens[i]) + rng.choice((-1, 1))) if tokens[i].isdigit() else token
    else:
        tokens.append(rng.choice(HOSTILE_TOKENS))
    lines[k] = " ".join(tokens)


def _pipeline(text: str):
    """The structure ``from_text`` reads, or None, and True if the text
    runs through, False if it is refused."""
    inc = None
    try:
        inc = from_text(text)
        validate_pg(inc)
        code = build_code(inc)
        repair_profile(code, mode="geometric")
        simulate_availability(code, p=0.2, trials=10, seed=5)
    except REFUSALS:
        return inc, False
    return inc, True


_STRICT_TOKEN = re.compile(r"-?[0-9]+")


def strict_read(text: str) -> list[tuple[int, ...]] | None:
    """The header and the line records, each as a tuple of ints, read
    strictly: lines end at '\\n' (less one trailing '\\r'), comment lines
    and lines of spaces and tabs alone are skipped, and every other line
    is tokens of ASCII digits with an optional leading '-' between spaces
    or tabs; None if a line is not."""
    rows = []
    for line in text.split("\n"):
        line = line.removesuffix("\r")
        if line.strip().startswith("#"):
            continue
        tokens = re.split("[ \t]+", line.strip(" \t"))
        if tokens == [""]:
            continue
        if not all(map(_STRICT_TOKEN.fullmatch, tokens)):
            return None
        rows.append(tuple(map(int, tokens)))
    return rows


def _records_as_array(text: str):
    """(num_points, records, array) when the header's point count and every
    record read as integers and the records fill one int64 array, else None."""
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]
    try:
        num_points = int(rows[0][0])
        records = [tuple(map(int, row)) for row in rows[1:]]
        array = np.array(records, dtype=np.int64)
    except (IndexError, ValueError, OverflowError):
        return None
    return (num_points, records, array) if array.ndim == 2 else None


def run_cases(seed: int, cases: int) -> tuple[dict[bool, int], int]:
    """Run ``cases`` mutated texts drawn from ``seed`` through the pipeline;
    an untyped refusal, a text ``from_text`` reads other than
    ``strict_read`` does, or an array read that differs from the tuples',
    fails.  Returns the count of each verdict (True: it runs through) and
    of the cases whose records were compared as one array."""
    rng = random.Random(seed)
    bases = _bases()
    outcomes = {True: 0, False: 0}
    compared = 0
    for case in range(cases):
        lines = list(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, lines)
        text = "\n".join(lines) + "\n"
        try:
            inc, ran = _pipeline(text)
        except Exception as exc:  # an untyped refusal fails the case
            raise AssertionError(f"seed {seed} case {case}: {type(exc).__name__}: {exc}\n{text!r}"
                                 ) from exc
        outcomes[ran] += 1
        assert inc is None or strict_read(text) == [(inc.num_points, inc.num_lines),
                                                    *inc.lines], (
            f"seed {seed} case {case}: read other than strictly\n{text!r}")
        read = _records_as_array(text)
        if read is not None:
            num_points, records, array = read
            assert (structure_or_refusal(num_points, array)
                    == structure_or_refusal(num_points, tuple(records))
                    ), f"seed {seed} case {case}\n{text!r}"
            compared += 1
    return outcomes, compared


def test_mutated_incidence_text_is_refused_with_a_typed_error():
    outcomes, compared = run_cases(SEED, CASES)
    # both verdicts occur, and a third of the cases reach the array comparison
    assert min(outcomes.values()) > 50, outcomes
    assert compared > CASES // 3, compared
