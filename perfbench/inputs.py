"""Inputs the benchmark generates: dihedral cones, Sd^2(f3), and discs.

Every generated action is written as action JSON and read back through
`load_action`, the same path a user's file takes.  All randomness comes
from `rng(...)`, which derives an independent stream from the benchmark
seed and a label, so one seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random

import stabpres as sp


def rng(seed, *labels):
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def dihedral_cone_obj(n, seed):
    """D_n (order 2n) acting on the cone over an n-gon, as an action object.

    The apex is joined to every rim vertex; generators are the rotation
    v_i -> v_{i+1} and the reflection v_i -> v_{-i}.  Vertex names are a
    seeded permutation of x000..x{n}, so the seed changes every canonical
    order in the pipeline but no relator or coset count.  The rotation
    collapses the rim to one orbit, so `refine_action` subdivides once.
    """
    labels = [f"x{i:03d}" for i in range(n + 1)]
    rng(seed, "cone", n).shuffle(labels)
    apex = labels[0]

    def rim(i):
        return labels[1 + i % n]

    edges = [[apex, rim(i)] for i in range(n)] + [[rim(i), rim(i + 1)] for i in range(n)]
    triangles = [[apex, rim(i), rim(i + 1)] for i in range(n)]
    rotation = [[rim(i) for i in range(n)]]
    reflection = [[rim(i), rim(-i)] for i in range(1, n) if i < n - i]
    return {
        "complex": {"vertices": labels, "edges": edges, "triangles": triangles},
        "generators": [rotation, reflection],
    }


def twice_subdivided(A):
    """Sd^2 of an action via `subdivide_action` twice, as an action object."""
    return sp.action_to_json_obj(sp.subdivide_action(sp.subdivide_action(A)))


def write_action(directory, name, obj):
    path = directory / f"{name}.json"
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def disc(n, seed, *labels):
    """A seeded random triangulated n-gon and its boundary loop."""
    return sp.random_nondegenerate_disc(n, rng(seed, "disc", n, *labels).randrange(2**31))


def expression_seeds(seed, label, count):
    """Seed 0 (every choice canonical) followed by count - 1 seeded ones."""
    r = rng(seed, "express", label)
    return [0] + [r.randrange(1, 2**31) for _ in range(count - 1)]
