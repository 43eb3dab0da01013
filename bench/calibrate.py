"""Calibration job: a fixed amount of work that shares no code with mh_phone.

run.py runs it in its own process before every child command of a timed
repetition and scales the run's times by its median time (README.md,
"Machine speed"). The job mixes what the CLI commands spend their time on:
per-record Python work with JSON lines encoded and parsed, large broadcast
temporaries, and small matrix products in a loop. Its work is fixed and
deterministic, so it must never change with the program; a change to this
file changes every calibrated metric.
"""

import json
import random
import time

import numpy as np

SIGNS, FRAMES, DIMS = 800, 12, 3
STATES, BROADCAST_ROUNDS = 40, 4
HIDDEN, STEPS = 16, 12000


def records():
    """Python-level work on small objects, like corpus writes and reads."""
    rng = random.Random(7)
    lines = []
    for i in range(SIGNS):
        frames = [[round(rng.gauss(0.0, 1.0), 6) for _ in range(DIMS)] for _ in range(FRAMES)]
        lines.append(json.dumps({"id": f"s{i:05d}", "frames": frames}))
    total = 0.0
    for line in "\n".join(lines).splitlines():
        sign = json.loads(line)
        if not isinstance(sign["id"], str) or len(sign["frames"]) != FRAMES:
            raise ValueError("bad record")
        total += sum(f[0] for f in sign["frames"])
    return total


def broadcasts():
    """Memory-bound array work, like the emission table."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((SIGNS * FRAMES, 1, DIMS))
    mu = rng.standard_normal((1, STATES, DIMS))
    total = 0.0
    for _ in range(BROADCAST_ROUNDS):
        d = ((x - mu) ** 2).sum(axis=-1)
        total += float(np.log(np.exp(-0.5 * d).sum(axis=1) + 1e-300).sum())
    return total


def recurrence():
    """Many small matrix products, like the GRU discriminator."""
    rng = np.random.default_rng(7)
    w = rng.standard_normal((HIDDEN, HIDDEN)) * 0.1
    u = rng.standard_normal((HIDDEN, DIMS)) * 0.1
    xs = rng.standard_normal((STEPS, DIMS))
    h = np.zeros(HIDDEN)
    for x in xs:
        h = np.tanh(w @ h + u @ x)
    return float(h.sum())


def calibrate():
    """Wall time of one job, in seconds."""
    start = time.perf_counter()
    records()
    broadcasts()
    recurrence()
    return time.perf_counter() - start
