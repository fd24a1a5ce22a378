"""Byte-exact CLI outputs, pinned by SHA-256.

Each command runs in process through ``cli.main`` and its stdout is hashed.
The digests were recorded before the repair metrics, the simulator's case
loop and the catalog's grid family were restructured, so any change in
the bytes a user sees fails here.  No command draws from a random stream
(the simulation is an exhaustive adversarial one), so a numpy upgrade
cannot move them.
"""

import hashlib

import pytest

from pgblrc.cli import main

GOLDEN = [
    ("analyze --geometry grid --s 2",
     "7ce4751f1fd406be4574b7d6755ec7ecfda4db7af6217dd62d9f46e793c28fca"),
    ("analyze --geometry symplectic --q 3",
     "2c6c6b847590291f9123a9e1cb247a17a18756b1773c2304b6ec30b1f2c7d166"),
    ("analyze --geometry elliptic --q 2 --dual",
     "20d684964011308583884a13261a8ac1874db7a0572c7ff4bc82a74aac038a32"),
    ("analyze --geometry elliptic --q 2 --dual --exhaustive",
     "68dc39594465df7e81ad4aebd05d17430894b9da6e625754d2329f74ae2c3328"),
    ("analyze --geometry symplectic --q 3 --exhaustive",
     "467615f4a3f9fa88f60763fd62a81b4902928fa8165216abb74dee6b33faf665"),
    ("analyze --geometry grid --s 4 --exhaustive",
     "6ed10073bd3a602fe9e2d7800b278a41b1df612ff7f9f7e3d34ff4afdd50774e"),
    ("analyze --geometry elliptic --q 2 --dual --exhaustive --format text",
     "37a8d4d8ff0c3d3c8f1a1cc02009163b696b85e4367d64d159b9b6cd0df34097"),
    ("catalog",
     "cf0081c676c921518792aa6659345156d925c1e46f4430e34e4f6e65456ff661"),
    # builds every constructible quadrangle up to n = 640 for its exact rate
    ("catalog --max-n 1100 --estimator exact-rank",
     "3630298d7d4db73a128a9ab74043fd27e3285aa852f9683f011b116aeef93bac"),
    # no grid survives: the family entry carries the smallest grid's verdict
    ("catalog --max-n 5",
     "bbe9ca87b7385f6a582dd6a2e622e8955a697ed97411f6986efc5f6f642127a9"),
    ("catalog --format text",
     "c784b5415dd3f69af970942c919c2ac8866f320c3245ab4aab698557239ee7eb"),
    ("simulate --geometry grid --s 3 --model adversarial --u 2 --format csv",
     "6720f93deb383142e417bc7cf328aebf88e7782538c40fd655e28677191a61f1"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_bytes_are_pinned(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
