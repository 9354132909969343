"""The (d, n, n) stack of transition matrices that a step matrix folds, and the
legacy generalized document that carries it as 'stoch' in place of 'step'."""

import numpy as np

from hypergroups.jsonio import generalized_to_json


def stack(step, relation, d) -> np.ndarray:
    """stack[i, x, y] = step[x, y] where relation[x, y] == i, else 0."""
    n = len(step)
    out = np.zeros((d, n, n))
    out[relation, np.arange(n)[:, None], np.arange(n)] = step
    return out


def stack_document(g) -> dict:
    """generalized_to_json(g) with the stack of g's step matrix as 'stoch'."""
    doc = generalized_to_json(g)
    del doc["step"]
    doc["stoch"] = stack(g.step, g.relation, g.n_classes).tolist()
    return doc
