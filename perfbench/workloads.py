"""Seeded op pools for the benchmark's three workloads.

A workload is a pool of POOL_SIZE[workload] slots. A slot fixes the cost
class of its op (model and format for `bounds`; swept parameter, format and
plot for `sweep`; cutoff and s-grid size for `oracle`), so every seed gives a
pool with the same cost mix. Each slot is an endless iterator of candidate
`qillum` argv lists that differ only in their drawn values; the run takes the
first candidate the seed program answers correctly and counts the others as
failed draws. The same seed always yields the same candidates. Parameters are
drawn log-uniform over the box the project promises to cover: n_s 1e-4..1,
n_b 1e-2..1e8, kappa 1e-4..0.5, copies 1..1e9.
"""

from __future__ import annotations

import itertools
import math
import random

from checker import CORNER_MAX_KAPPA, CORNER_MAX_NS, CORNER_MIN_NB

BOX = {"ns": (1e-4, 1.0), "nb": (1e-2, 1e8), "kappa": (1e-4, 0.5), "copies": (1.0, 1e9)}
# The dim-signal, bright-background corner of the box, where the checker
# compares the exponent with its asymptote.
CORNER = BOX | {"ns": (BOX["ns"][0], CORNER_MAX_NS), "nb": (CORNER_MIN_NB, BOX["nb"][1]),
                "kappa": (BOX["kappa"][0], CORNER_MAX_KAPPA)}
MODELS = ("three-mode", "two-mode", "coherent")
SWEEP_PARAMS = (("nS", "ns"), ("nB", "nb"), ("kappa", "kappa"))
SWEEP_EXTRAS = "qb2,qb3,qb_coherent"
ORACLE_CUTOFFS = range(14, 25)
# oracle_overlap refuses when a thermal input leaks more than this past the
# cutoff; draws stay at half the largest photon number that passes.
ORACLE_TAIL_LIMIT = 1e-8
WORKLOADS = ("bounds", "sweep", "oracle")
ORACLE_S_COUNTS = (1, 2, 3)
# bounds: each (model, format) pair 20 times; sweep: each parameter six
# times, once with --plot; oracle: each (cutoff, s-grid size) pair once.
POOL_SIZE = {"bounds": 120, "sweep": 18,
             "oracle": len(ORACLE_CUTOFFS) * len(ORACLE_S_COUNTS)}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _num(x: float) -> str:
    return f"{x:.6g}"


def _scenario_flags(rng: random.Random, box: dict = BOX) -> list[str]:
    return [
        "--ns", _num(_log_uniform(rng, *box["ns"])),
        "--nb", _num(_log_uniform(rng, *box["nb"])),
        "--kappa", _num(_log_uniform(rng, *box["kappa"])),
        "--copies", str(round(_log_uniform(rng, *box["copies"]))),
    ]


def bounds_slot(slot: int, rng: random.Random):
    """One `bounds` call; the model rotates and the format alternates over slots.

    Every fifth slot, four per (model, format) pair, draws from the corner, so
    that each pool holds enough ops for qb_asymptote_dev_max; the others draw
    from the whole box.
    """
    fmt = "json" if slot % 2 else "text"
    box = CORNER if slot % 5 == 0 else BOX
    while True:
        yield ["bounds", "--model", MODELS[slot % 3], *_scenario_flags(rng, box), "--format", fmt]


def sweep_slot(slot: int, rng: random.Random, plot_path: str):
    """One 100-row `sweep` with the Bhattacharyya extras.

    The swept parameter cycles nS/nB/kappa over slots, over a range of at
    least one decade inside the box; the first three slots, one per
    parameter, also write the SVG plot. The format alternates over slots.
    """
    param, key = SWEEP_PARAMS[slot % 3]
    lo, hi = BOX[key]
    while True:
        start = _log_uniform(rng, lo, hi / 10.0)
        stop = _log_uniform(rng, start * 10.0, hi)
        argv = ["sweep", *_scenario_flags(rng), "--param", param,
                "--start", _num(start), "--stop", _num(stop),
                "--extras", SWEEP_EXTRAS, "--format", "json" if slot % 2 else "csv"]
        if slot < 3:
            argv += ["--plot", plot_path]
        yield argv


def oracle_max_photons(cutoff: int) -> float:
    """Largest thermal photon number whose tail past the cutoff is ORACLE_TAIL_LIMIT."""
    r = ORACLE_TAIL_LIMIT ** (1.0 / (cutoff + 1))
    return r / (1.0 - r)


def _log_at(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def oracle_slot(slot: int, rng: random.Random, thirds: tuple):
    """One two-mode `oracle-check`; cutoff and s-grid size are fixed per slot.

    Fock cost follows the cutoff (matrix size), the s-grid size (states are
    rebuilt per s value) and, less, the drawn values (expm squarings follow
    kappa, eigh deflation n_s and n_b). The three slots of one cutoff draw
    n_s, n_b and kappa each from a different third of their log ranges, so a
    pool's cost mix stays the same whatever the seed. n_s and n_b are drawn so
    that the tail budget passes at the cutoff. The format alternates from
    candidate to candidate, starting with text on even slots.
    """
    cutoff = ORACLE_CUTOFFS[slot // len(ORACLE_S_COUNTS)]
    s_count = ORACLE_S_COUNTS[slot % len(ORACLE_S_COUNTS)]
    n_max = 0.5 * oracle_max_photons(cutoff)
    for j in itertools.count():
        u_ns, u_nb, u_kappa = ((third + rng.random()) / 3.0 for third in thirds)
        kappa = _log_at(1e-3, 0.5, u_kappa)
        s_grid = ",".join(f"{rng.uniform(0.05, 0.95):.4f}" for _ in range(s_count))
        yield ["oracle-check", "--model", "two-mode",
               "--ns", _num(_log_at(1e-3, n_max, u_ns)),
               "--nb", _num(_log_at(1e-3, n_max * (1.0 - kappa), u_nb)),
               "--kappa", _num(kappa), "--cutoff", str(cutoff), "--s-grid", s_grid,
               "--format", "json" if (slot + j) % 2 else "text"]


def slots(workload: str, seed: int, plot_path: str) -> list:
    """The pool's candidate iterators, one per slot; identical for identical seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    # For each cutoff, which third of the n_s, n_b and kappa ranges each of its
    # slots draws from: three shuffles of (0, 1, 2), one per parameter.
    thirds = []
    for _ in ORACLE_CUTOFFS:
        perms = [rng.sample(range(3), 3) for _ in range(3)]
        thirds += list(zip(*perms))
    pool = []
    for slot in range(POOL_SIZE[workload]):
        slot_rng = random.Random(f"{workload}:{seed}:{slot}")
        if workload == "bounds":
            pool.append(bounds_slot(slot, slot_rng))
        elif workload == "sweep":
            pool.append(sweep_slot(slot, slot_rng, plot_path))
        else:
            pool.append(oracle_slot(slot, slot_rng, thirds[slot]))
    return pool
