"""Byte-exact CLI outputs, pinned by SHA-256.

Each command runs in process through ``cli.main`` and its stdout is hashed.
The digests were recorded before the repair metrics, the simulator's case
loop and the catalog's grid family were restructured, the JSON ones
before the indented JSON writer replaced ``json.dumps``, and the
``construct`` ones before the quadrangle constructors read their lines
off the geometry, so any change in the bytes a user sees fails here.
No output depends on a random stream (the adversarial simulations are
exhaustive, and the iid one has p = 1), so a numpy upgrade cannot move
them.
"""

import hashlib
from pathlib import Path

import pytest

from pgblrc.cli import main

REPO = Path(__file__).parent.parent

GOLDEN = [
    ("construct grid --s 8",
     "9f84db3431110964e7301f2115eecd46840a87a954283791ccfb477c235b98b2"),
    ("construct symplectic --q 4",
     "8cc094a6a6a804e68e45552416098d758e9f0b2f39c1fe23b99171de5bd9eb3a"),
    ("construct symplectic --q 5",
     "fd380c527be4a47c7a53110183f05a92ba38abfaa75a4a20868d54a3c15c6f83"),
    ("construct symplectic --q 7",
     "d137d7c4c792f0f0d4e9a5348fb170ba0d3e09e92234fb77872677815ca58c8a"),
    ("construct symplectic --q 8",
     "d0259fd75f206c61dee4737f09d5c37f86967104e696b9ad70fab9224f40b7e4"),
    ("construct symplectic --q 9",
     "ff1c61402c13641cf69ba8b385a492312b59b7fd3e4062cb36a07fd429cfd07c"),
    ("construct elliptic --q 3",
     "52067e7d15de8a1a05a65de0063224cd100897a83a69c2025ab1013b4050a825"),
    ("construct elliptic --q 2 --dual",
     "03a66cde8829b3b1a04498fcc9685bba26fd64de8eeda974f7bcdbee257ce1e3"),
    ("construct hyperoval --q 8",
     "d44eaf676961795d0fa662fba4694458021588aff49929e7f871a844ad2d8a70"),
    ("construct hyperoval --q 16",
     "d5eed46e71d0b8bfdfec10da71a22a5c4fb581f2b302835f592a9fadb17ce281"),
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
    ("analyze --geometry symplectic --q 4 --exhaustive",
     "8cb0062d5a1eaa9ac2d0b08be253196fac3ee83d5e455e26c15101c59edafe7d"),
    ("analyze --geometry elliptic --q 3 --exhaustive",
     "ac46ba5489b5d16c8c972b0dc86d5fef35044535854b19f89b6fd69ff20982d5"),
    ("analyze --geometry elliptic --q 2 --dual --exhaustive --format text",
     "37a8d4d8ff0c3d3c8f1a1cc02009163b696b85e4367d64d159b9b6cd0df34097"),
    ("catalog",
     "cf0081c676c921518792aa6659345156d925c1e46f4430e34e4f6e65456ff661"),
    # builds every constructible quadrangle up to n = 640, and the grids up
    # to grid(31) with n = 1024, for their exact rates
    ("catalog --max-n 1100 --estimator exact-rank",
     "3630298d7d4db73a128a9ab74043fd27e3285aa852f9683f011b116aeef93bac"),
    # no grid survives: the family entry carries the smallest grid's verdict
    ("catalog --max-n 5",
     "bbe9ca87b7385f6a582dd6a2e622e8955a697ed97411f6986efc5f6f642127a9"),
    ("catalog --format text",
     "c784b5415dd3f69af970942c919c2ac8866f320c3245ab4aab698557239ee7eb"),
    ("simulate --geometry grid --s 3 --model adversarial --u 2 --format csv",
     "6720f93deb383142e417bc7cf328aebf88e7782538c40fd655e28677191a61f1"),
    ("simulate --geometry grid --s 3 --model adversarial --u 2 --format json",
     "0d0710db079af70fe14cf897ceadb30133b409a229b134f019d661af47816d42"),
    # every symbol is unavailable, so the mean retrieved counts are NaN
    ("simulate --geometry grid --s 2 --p 1 --trials 3 --format json",
     "c52fc484701c0491d9507b0a69dbae79e2803abec7f54c7bb0e2d36b43034f74"),
    ("bounds --format json",
     "6681dc18753602ce388cf823623687d02778cb1d694cbb3b4b0276b37a28ab7f"),
    ("validate --file tests/fixtures/fano.txt",
     "a7c33405a92f49bd960205081aa38736a3ff45dabebc6520bfe61725c022c431"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_bytes_are_pinned(capsys, command, digest):
    argv = [str(REPO / arg) if arg.startswith("tests/") else arg
            for arg in command.split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
