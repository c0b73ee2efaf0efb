"""Job catalogues of the three workloads and their seeded job lists.

A job is one argv list for ``bmwcenter.cli.run``.  Each workload owns a
finite catalogue; ``job_list(workload, seed)`` draws the jobs one run
executes.  Nothing here imports ``bmwcenter``: the inputs do not depend on
the code under test.

Kept out of every catalogue, because the ROADMAP removes or refuses them
and a later PR doing so must not count as a benchmark failure:
``--parallel``, ``--shape2``, ``--defect``, ``--format dot`` outside
``graph``, negative ``--n``, ``--format json`` for ``selfcheck`` (which
ignores it), and enumerations far above any sane ``ResourceLimit`` cap.
Jobs that take 12 s or more (``family --n 4`` generic, ``family --n 5``,
``matrix --n 5/6`` on rank-deficient power regimes) are left to the cliff
report in ``run.py --cliffs``.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "paths", "algebra")

# ---------------------------------------------------------------------------
# sweep: the classification grid, drawn with replacement

SWEEP_COMMANDS = ("lambda", "signature", "contents", "pairs", "separate",
                  "semisimple", "blocks", "verify-blocks")
SWEEP_LEVELS = range(4, 13)
# generic plus t = +-q^N over even, odd, zero and negative N; semisimple
# and not, depending on the level (|N| <= n - 3 is never semisimple)
SWEEP_REGIMES = ("generic", "1", "q^2", "-q^2", "q^-4", "q^6", "-q^1",
                 "q^3", "-q^-3", "q^14", "-q^17")
# draws per (command, level) cell; stratifying by cell keeps the amount of
# work nearly the same for every seed while (n, regime) pairs still recur
SWEEP_DRAWS = 3
FORMATS = ("text", "json")


def _with_format(argv, fmt):
    return argv + ["--format", fmt] if fmt != "text" else list(argv)


def _exponent(regime):
    return 0 if regime == "1" else int(regime.lstrip("-")[2:])


def _shape_text(parts):
    return ",".join(str(p) for p in parts) if parts else "0"


def level_shapes(n):
    """A fixed handful of shapes at level n: rows, columns, hooks, defects."""
    cands = [(n,), (1,) * n, (n - 2, 2), (n - 2, 1, 1), (n - 2,),
             (1,) * (n - 2), (n - 4, 2), (2, 1) if n % 2 else (1, 1),
             (1,) if n % 2 else ()]
    out = []
    for parts in cands:
        parts = tuple(p for p in parts if p)
        ok = all(a >= b for a, b in zip(parts, parts[1:]))
        if ok and sum(parts) <= n and (n - sum(parts)) % 2 == 0:
            text = _shape_text(parts)
            if text not in out:
                out.append(text)
    return out


def sweep_regimes(command, n):
    if command == "lambda":
        return ["generic"]
    if command == "blocks":
        # generic blocks are singletons and 15x cheaper; mixing them in
        # would make the tail depend on the draw
        return [r for r in SWEEP_REGIMES if r != "generic"]
    even = [r for r in SWEEP_REGIMES
            if r != "generic" and _exponent(r) % 2 == 0]
    if command == "pairs":
        return even
    if command == "verify-blocks":
        # the block theorem is stated where the algebra is not semisimple
        return [r for r in even if abs(_exponent(r)) <= n - 3]
    return list(SWEEP_REGIMES)


def _sweep_argv(command, n, regime, shape, fmt):
    argv = [command, "--n", str(n)]
    if regime != "generic":
        argv += ["--t", regime]
    if shape is not None:
        argv += ["--shape", shape]
    return _with_format(argv, fmt)


def _sweep_cell(command, n):
    """All catalogue entries of one (command, level) cell."""
    shapes = level_shapes(n) if command in ("signature", "contents", "pairs") else [None]
    return [_sweep_argv(command, n, regime, shape, fmt)
            for regime in sweep_regimes(command, n) for shape in shapes
            for fmt in FORMATS]


def _sweep_draws(rng, command, n):
    if command in ("blocks", "verify-blocks"):
        # these make the tail, and their cost depends on the regime by up
        # to 1.8x; evenly spaced fixed regimes keep the tail the same for
        # every seed, and only the format is drawn
        regimes = sweep_regimes(command, n)
        return [_sweep_argv(command, n, regimes[i * len(regimes) // SWEEP_DRAWS],
                            None, rng.choice(FORMATS))
                for i in range(SWEEP_DRAWS)]
    cell = _sweep_cell(command, n)
    return [rng.choice(cell) for _ in range(SWEEP_DRAWS)]


# ---------------------------------------------------------------------------
# paths and algebra: one variant per slot, no repeats within a run
#
# The variants of a slot cost about the same (conjugate shapes have equal
# path counts; selfcheck and idempotent time is enumerating the whole
# level, whatever the shape or regime; q^N and q^-N mirror each other), and
# each slot has one output format, so the seed changes the inputs without
# changing the amount of work.


def _slot(base, flag, values, fmt="text"):
    """base argv with flag set to each value in turn (None leaves it out)."""
    return [_with_format(base + ([flag, v] if v is not None else []), fmt)
            for v in values]


PATHS_SLOTS = [
    _slot(["paths", "--n", "10"], "--shape", ("2", "1,1")),
    _slot(["paths", "--n", "10"], "--shape", ("4,2", "2,2,1,1"), "json"),
    _slot(["paths", "--n", "9"], "--shape", ("2,1",), "json"),
    _slot(["paths", "--n", "9"], "--shape", ("3,2", "2,2,1")),
    _slot(["paths", "--n", "9"], "--shape", ("4,1", "2,1,1,1"), "json"),
    _slot(["paths", "--n", "8"], "--shape", ("3,1", "2,1,1")),
    _slot(["selfcheck", "--n", "9"], "--t", (None, "q^2", "-q^3", "q^-4")),
    _slot(["selfcheck", "--n", "8"], "--t", (None, "q^2", "-q^1", "q^5")),
    _slot(["selfcheck", "--n", "7"], "--t", (None, "1", "q^-2", "-q^3")),
    _slot(["idempotent", "--n", "9"], "--shape", ("1",)),
    _slot(["idempotent", "--n", "8"], "--shape", ("2", "1,1"), "json"),
    _slot(["idempotent", "--n", "7"], "--shape", ("1", "3", "2,1", "1,1,1")),
    _slot(["idempotent", "--n", "6"], "--shape", ("2", "1,1", "0"), "json"),
    _slot(["idempotent", "--n", "6"], "--shape", ("4", "1,1,1,1", "3,1", "2,1,1")),
    _slot(["graph", "--n", "12"], "--t", (None, "q^2", "-q^3")),
    _slot(["graph", "--n", "11"], "--t", (None, "1", "q^-5"), "json"),
    _slot(["graph", "--n", "10"], "--t", (None, "-q^2", "q^7"), "dot"),
]

ALGEBRA_SLOTS = [
    _slot(["family", "--n", "3"], "--t", (None,), "json"),
    _slot(["family", "--n", "3"], "--t", ("-q^1", "-q^-1"), "json"),
    _slot(["family", "--n", "4"], "--t", ("1",)),
    _slot(["family", "--n", "4"], "--t", ("-q^1",), "json"),
    _slot(["family", "--n", "4"], "--t", ("-q^3",)),
    _slot(["matrix", "--n", "4"], "--t", (None,), "json"),
    # the two Bareiss-fallback cases: specialisation cannot certify the rank
    _slot(["matrix", "--n", "4"], "--t", ("q^0",)),
    _slot(["matrix", "--n", "4"], "--t", ("-q^1", "-q^-1"), "json"),
    _slot(["matrix", "--n", "4"], "--t", ("q^2", "q^-2")),
    _slot(["matrix", "--n", "5"], "--t", (None,)),
    _slot(["matrix", "--n", "5"], "--t", ("q^4", "q^-4"), "json"),
    _slot(["matrix", "--n", "5"], "--t", ("q^6", "q^-6")),
    _slot(["matrix", "--n", "6"], "--t", (None,), "json"),
    _slot(["wheel", "--n", "2"], "--order", ("8",), "json"),
    _slot(["wheel", "--n", "3"], "--order", ("8",)),
    _slot(["wheel", "--n", "4"], "--order", ("6",), "json"),
]


def _slots(workload):
    return {"paths": PATHS_SLOTS, "algebra": ALGEBRA_SLOTS}[workload]


# ---------------------------------------------------------------------------
# public interface


def catalogue(workload):
    """Every argv the workload can draw, in a fixed order."""
    if workload == "sweep":
        return [argv for command in SWEEP_COMMANDS for n in SWEEP_LEVELS
                for argv in _sweep_cell(command, n)]
    return [argv for slot in _slots(workload) for argv in slot]


def job_list(workload, seed):
    """The jobs one run of the workload executes, drawn from the seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "sweep":
        jobs = [argv for command in SWEEP_COMMANDS for n in SWEEP_LEVELS
                for argv in _sweep_draws(rng, command, n)]
        rng.shuffle(jobs)
        return jobs
    # slot order is fixed: the order jobs run in changes the heap they run
    # on, which would add seed-dependent noise
    return [list(rng.choice(slot)) for slot in _slots(workload)]


def job_key(argv):
    return " ".join(argv)
