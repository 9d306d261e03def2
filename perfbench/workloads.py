"""Seeded op schedules of the three workloads.

An op is one ``z2top.cli.main`` call or one public relabelling-search call.
A workload is a list of op shapes, and each shape owns POOL inputs drawn
from the workload seed.  Cycle i runs every shape once, on input i % POOL,
in an order drawn from the seed, so a run of whole cycles has the same mix
of shapes whatever the seed.  Every shape list has an odd length, which
puts the median op inside one shape's group rather than on the gap between
two shapes.

This module imports no numpy at load time: the benchmark times the first
import of ``z2top.cli``, which is where numpy must load.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Optional

#: Distinct inputs per shape; cycles past the first POOL repeat them.
POOL = 3
#: Default output grid of run and zk: the horizon split into this many steps.
DEFAULT_SAMPLES = 256
#: The finer grid of some smallstate-mix ops.
FINE_SAMPLES = 16 * DEFAULT_SAMPLES
#: The coarser grid of highdim-run.
COARSE_SAMPLES = DEFAULT_SAMPLES // 8


@dataclass(frozen=True)
class Op:
    kind: str  # run | reduce | zk | geometry | equations | search
    argv: tuple[str, ...]  # CLI arguments without --out; (function,) for search
    size: tuple[str, int]  # ("n", 9) or ("k", 3)
    fmt: str  # csv | json | dot | txt | perm
    seed: Optional[int] = None
    sample_interval: Optional[float] = None
    target: tuple = ()  # search target: line triples or hyperplane blocks
    shape: int = -1  # index of the op's shape in its workload

    @property
    def key(self) -> tuple:
        return (self.argv, self.size, self.target)

    @property
    def label(self) -> str:
        if self.kind == "search":
            return f"{self.argv[0]} {self.size[0]}={self.size[1]}"
        return " ".join(self.argv)

    def outputs(self, base: str) -> list[str]:
        if self.kind in ("run", "zk"):
            return [f"{base}.trajectory.{self.fmt}", f"{base}.drift.json"]
        if self.kind == "search":
            return []
        return [f"{base}.{self.fmt}"]

    def cli_argv(self, base: str) -> list[str]:
        out = base if self.kind in ("run", "zk") else self.outputs(base)[0]
        return [*self.argv, "--out", out]


# --- the program's documented seeding and default horizon -------------------


def seeded_state(seed: int, dim: int):
    """The initial state ``--seed`` selects with the default --random-range 0.1,0.5."""
    import numpy as np

    return np.random.default_rng(seed).uniform(0.1, 0.5, dim)


def run_horizon(n: int, w0) -> float:
    """Default run horizon 0.4 / ((2^(n-1) - 1) max |omega0|)."""
    return 0.4 / ((2 ** (n - 1) - 1) * float(abs(w0).max()))


def zk_horizon(k: int, w0) -> float:
    """Default zk horizon 0.4 / ((k - 1) max |omega0|^(k-1))."""
    return 0.4 / ((k - 1) * float(abs(w0).max()) ** (k - 1))


# --- canonical incidence, computed without the package ----------------------


def parity(x: int) -> int:
    return x.bit_count() & 1


def canonical_lines(n: int) -> list[tuple[int, int, int]]:
    d = 2**n - 1
    return [(p, q, p ^ q) for p in range(1, d + 1) for q in range(p + 1, d + 1) if p ^ q > q]


def canonical_hyperplanes(n: int) -> list[frozenset]:
    d = 2**n - 1
    return [frozenset(p for p in range(1, d + 1) if not parity(v & p)) for v in range(1, d + 1)]


def _random_relabelling(rng: random.Random, n: int) -> dict[int, int]:
    """Point map p -> M p for a random invertible GF(2) matrix M (a collineation)."""
    while True:
        rows = [rng.randrange(1, 2**n) for _ in range(n)]
        image = {
            p: sum(parity(row & p) << (n - 1 - i) for i, row in enumerate(rows))
            for p in range(1, 2**n)
        }
        if sorted(image.values()) == list(range(1, 2**n)):
            return image


# --- op shapes ---------------------------------------------------------------

Shape = Callable[[random.Random], Op]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _grid(argv: list[str], horizon: float, samples: Optional[int]) -> Optional[float]:
    """Append --sample-interval for a grid of `samples` steps; None keeps the default grid."""
    if samples is None:
        return None
    interval = horizon / samples
    argv += ["--sample-interval", repr(interval)]
    return interval


def _run(n: int, fmt: str = "csv", samples: Optional[int] = None) -> Shape:
    def make(rng: random.Random) -> Op:
        seed = _seed(rng)
        argv = ["run", "--n", str(n), "--seed", str(seed)]
        interval = _grid(argv, run_horizon(n, seeded_state(seed, 2**n - 1)), samples)
        if fmt != "csv":
            argv += ["--format", fmt]
        return Op("run", tuple(argv), ("n", n), fmt, seed, interval)

    return make


def _zk(k: int, fmt: str = "csv", samples: Optional[int] = None) -> Shape:
    def make(rng: random.Random) -> Op:
        seed = _seed(rng)
        argv = ["zk", "--k", str(k), "--seed", str(seed)]
        interval = _grid(argv, zk_horizon(k, seeded_state(seed, k + 1)), samples)
        if fmt != "csv":
            argv += ["--format", fmt]
        return Op("zk", tuple(argv), ("k", k), fmt, seed, interval)

    return make


def _reduce(n: int) -> Shape:
    def make(rng: random.Random) -> Op:
        seed = _seed(rng)
        return Op("reduce", ("reduce", "--n", str(n), "--seed", str(seed)), ("n", n), "json", seed)

    return make


def _geometry(n: int, fmt: str) -> Shape:
    return lambda rng: Op("geometry", ("geometry", "--n", str(n), "--format", fmt), ("n", n), fmt)


def _equations(n: int, labelling: str) -> Shape:
    argv = ("equations", "--n", str(n), "--labelling", labelling)
    return lambda rng: Op("equations", argv, ("n", n), "txt")


def _search_lines(n: int) -> Shape:
    def make(rng: random.Random) -> Op:
        image = _random_relabelling(rng, n)
        triples = [tuple(rng.sample([image[p] for p in line], 3)) for line in canonical_lines(n)]
        rng.shuffle(triples)
        return Op("search", ("find_collineation",), ("n", n), "perm", target=tuple(triples))

    return make


def _search_blocks(n: int) -> Shape:
    def make(rng: random.Random) -> Op:
        image = _random_relabelling(rng, n)
        blocks = [tuple(rng.sample([image[p] for p in h], len(h))) for h in canonical_hyperplanes(n)]
        rng.shuffle(blocks)
        return Op("search", ("find_hyperplane_collineation",), ("n", n), "perm", target=tuple(blocks))

    return make


# Why each workload exists is in BENCHMARK.json.
SHAPES: dict[str, list[Shape]] = {
    # A 32-step output grid keeps each op's fresh arrays near 25 MB.  With
    # the default grid (n = 8: ~190 MB, n = 9: ~0.8 GB) the kernel's page
    # faults and the host's memory contention swing the best op of a run
    # by 30% from run to run.
    "highdim-run": [_run(8, samples=COARSE_SAMPLES)],
    # 25 shapes; the fine-grid ops are 7 of the 21 run/zk shapes.
    "smallstate-mix": [
        *(_run(n, fmt) for n in (2, 3, 4, 5) for fmt in ("csv", "json")),
        *(_run(n, samples=FINE_SAMPLES) for n in (2, 3, 4, 5)),
        *(_reduce(n) for n in (3, 4, 5, 6)),
        *(_zk(k, fmt) for k in (3, 6, 12) for fmt in ("csv", "json")),
        *(_zk(k, samples=FINE_SAMPLES) for k in (3, 6, 12)),
    ],
    # 13 shapes.  geometry --n 9 (0.2-0.5 s, tens of MB of fresh objects per
    # op) made the run-to-run spread of ops_per_s and the tail reach 0.18.
    "incidence": [
        *(_geometry(n, fmt) for n in (6, 7, 8) for fmt in ("json", "dot")),
        _equations(3, "classic"),
        _equations(4, "classic"),
        _equations(4, "canonical"),
        *(_search_lines(n) for n in (3, 4)),
        *(_search_blocks(n) for n in (3, 4)),
    ],
}


class Schedule:
    """The endless op sequence of one workload and seed, cycle by cycle."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in SHAPES:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(SHAPES)}")
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload}:{seed}")
        self.pools = [
            [dataclasses.replace(make(rng), shape=i) for _ in range(POOL)]
            for i, make in enumerate(SHAPES[workload])
        ]

    def cycle(self, i: int) -> list[Op]:
        ops = [pool[i % POOL] for pool in self.pools]
        random.Random(f"{self.workload}:{self.seed}:{i}").shuffle(ops)
        return ops
