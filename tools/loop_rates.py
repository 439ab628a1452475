"""In-process nanoseconds per step of the single-run step loops.

    python3 tools/loop_rates.py [--rounds N] [--chunks C] [--shapes 2x1,4x2] ROOT [ROOT]

Each ROOT is a directory that holds the ``exdyn`` package, such as ``src``
of a checkout, or of another commit's files exported with ``git archive``.
Every root is imported into this one process as its own set of module
objects.  Each round times one shape after another, each on every root,
the roots' order alternating from round to round, so that a drift in the
machine's speed reaches both roots alike.  A shape is what
``harness._step_loop`` compiles a loop for: k and dim, what the loop
records after each step (``none``, ``means`` or ``states``), whether it
keeps winners and whether it decays.  ``--shapes`` names the (k, dim) pairs, each run with every
setting of the other three: ``2x1`` is the 1-D pair (fig3 and the theorem
suite), from (0.25, 0.75) on the unit box; ``4x2`` is fig1's four means on
the box [0, 100]^2; any other KxD starts from k means spread along the
unit box's diagonal.  Decaying loops run at decay rate 0.05.

A timed sample runs C chunks of 4096 uniform draws, as ``_Run.blocks``
hands them to the loop: one flat list of coordinates per chunk, fresh
record and winner lists per chunk, the state carried from chunk to chunk.
The same seeded draws go to every root.  The table gives each shape's
median ns per step over the rounds, per root, the second root's change
against the first, and in how many rounds the second root was the faster.
A shape whose loop is the same in both roots shows the spread that a
change must stand out of.  The last line of output is one JSON object with
every sample.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import sys
import time

import numpy as np

CHUNK = 4096
DECAY_RATE = 0.05
RECORDS = ("none", "means", "states")


def load_harness(root):
    """exdyn.harness imported from ``root``, as module objects of its own."""
    for name in [m for m in sys.modules if m == "exdyn" or m.startswith("exdyn.")]:
        del sys.modules[name]
    sys.path.insert(0, root)
    try:
        return importlib.import_module("exdyn.harness")
    finally:
        sys.path.remove(root)
        for name in [m for m in sys.modules if m == "exdyn" or m.startswith("exdyn.")]:
            del sys.modules[name]


def start(k, dim):
    """(flat initial state, box scale) of a (k, dim) family."""
    if (k, dim) == (2, 1):
        means, scale = [[0.25], [0.75]], 1.0
    elif (k, dim) == (4, 2):
        means, scale = [[25, 25], [75, 25], [25, 75], [75, 75]], 100.0
    else:
        means, scale = [[(j + 0.5) / k] * dim for j in range(k)], 1.0
    return tuple(np.append(np.array(means, float), np.full(k, 10.0)).tolist()), scale


def shapes(families):
    for k, dim in families:
        for records in RECORDS:
            for winners in (False, True):
                for decays in (False, True):
                    yield k, dim, records, winners, decays


def name(shape):
    k, dim, records, winners, decays = shape
    return (f"k={k} dim={dim} {records}"
            f"{' winners' if winners else ''}{' decays' if decays else ''}")


def time_shape(harness, shape, chunks):
    # ns per step of one sample
    k, dim, records, winners, decays = shape
    loop = harness._step_loop(k, dim, winners, records, decays)
    state, scale = start(k, dim)
    decay = math.exp(-DECAY_RATE) if decays else 1.0
    rng = np.random.default_rng(12345)
    zs = [(scale * rng.random((CHUNK, dim))).ravel().tolist() for _ in range(chunks)]
    t0 = time.perf_counter()
    for z in zs:
        state = loop(z, decay, state, [], [])
    return (time.perf_counter() - t0) / (chunks * CHUNK) * 1e9


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", metavar="ROOT")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--chunks", type=int, default=25)
    parser.add_argument("--shapes", default="2x1,4x2")
    args = parser.parse_args(argv)
    if not 1 <= len(args.roots) <= 2:
        parser.error("give one or two roots")
    if args.rounds < 1 or args.chunks < 1:
        parser.error("--rounds and --chunks must be at least 1")
    families = [tuple(int(x) for x in s.split("x")) for s in args.shapes.split(",")]
    harnesses = [load_harness(root) for root in args.roots]
    every = list(shapes(families))
    for h in harnesses:  # compile every loop before timing
        for shape in every:
            time_shape(h, shape, 1)

    samples = {name(s): [[] for _ in harnesses] for s in every}
    for r in range(args.rounds):
        order = list(range(len(harnesses)))[::1 if r % 2 == 0 else -1]
        for shape in every:
            for i in order:
                samples[name(shape)][i].append(time_shape(harnesses[i], shape, args.chunks))
        print(f"round {r + 1} of {args.rounds}", file=sys.stderr)

    heads = ["shape"] + [f"ns/step {root}" for root in args.roots]
    heads += ["change", "lower in"] * (len(harnesses) == 2)
    print("| " + " | ".join(heads) + " |")
    print("|" + "---|" * len(heads))
    for shape, per_root in samples.items():
        medians = [statistics.median(s) for s in per_root]
        cells = [shape] + [f"{m:.0f}" for m in medians]
        if len(medians) == 2:
            lower = sum(b < a for a, b in zip(*per_root))
            cells += [f"{100 * (medians[1] / medians[0] - 1):+.1f} %",
                      f"{lower} of {args.rounds}"]
        print("| " + " | ".join(cells) + " |")
    print(json.dumps({"roots": args.roots, "rounds": args.rounds, "chunk": CHUNK,
                      "chunks": args.chunks, "python": sys.version.split()[0],
                      "numpy": np.__version__, "ns_per_step": samples}))


if __name__ == "__main__":
    main()
