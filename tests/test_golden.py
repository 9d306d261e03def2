"""Golden digests: the incidence CLI outputs must stay byte-identical.

Each digest is the sha256 of the stdout of ``z2top <args>``.  A change to
any of these outputs is a change to the file format and must update the
digest on purpose.
"""

import hashlib

import pytest

from z2top.cli import main

GOLDEN = {
    "geometry --n 3": "2bcaa3e95293068c7caeacb4bb4ff175bae3dcc5cdaaf687bb3ee0069ec69d37",
    "geometry --n 4": "6ee39f2266a975fa9d51b0493234509eeef1f8d43e76437e51c35d7481935630",
    "geometry --n 8": "80d69a78318ead40d3067459986f32e9848824c8be2a86f24321025fd291548f",
    "geometry --n 3 --format dot": "c7905bceb5f80cf49c7294b183da6ce12163daac4a40ad72a5687db1b96ae99b",
    "geometry --n 4 --format dot": "b84ebaf26956379478bed78ed383328171f1a63b3fbe53b4f417a7a80aaaccf4",
    "geometry --n 8 --format dot": "e151b3def8bb0bf9350bad5af4774b308f853d8958c084998fd40784373152a0",
    "equations --n 4": "c9b903dce0d0a22559d1f5e75f7fd45c9ebf03bca10083053abff05d35edee80",
    "equations --n 8": "ad4a76c93370e443daa03ecdf0641bb4c2df6ea0d38f300a4d9e1b8e586b6b31",
    "equations --n 3 --labelling classic": "859af1b60d3ea1443f17c9911544d502e87a3517239a76d82bdd88657169b00b",
    "equations --n 4 --labelling classic": "febb887b3b85181c73fe0290d4a22590cc82c3a6c76562be6f023d23df024a0b",
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_stdout_digest(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[args]
