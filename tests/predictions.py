"""`faulty_predictions`: the predictions `resacc.microdnn.prediction_batches`
yields a batch at a time, gathered into one array, as the engine tests read
them."""

from __future__ import annotations

import numpy as np

from resacc.microdnn import prediction_batches


def faulty_predictions(net, fault, profile, cache, bits, var_indices=None) -> np.ndarray:
    """Predicted class of every cached input with the fault's variable
    flipped, for each of ``bits``: an int array (len(bits), n_inputs),
    CRASHED where the fault crashes the accelerator. ``fault.site`` names the
    variable; its ``bit_pos`` is not read.

    Given ``var_indices``, each of those variables of ``fault.site``'s
    (layer, type) class is flipped in turn instead, in batches of variables:
    (len(var_indices), len(bits), n_inputs).
    """
    bits = [int(b) for b in bits]
    vs = [fault.site.var_index] if var_indices is None else var_indices
    preds = np.empty((len(vs), len(bits), len(cache.acts[0])), dtype=np.intp)
    for pos, p in prediction_batches(net, fault, profile, cache, bits, vs):
        if len(pos) == len(vs):
            preds = p  # one batch of every variable, as a live call makes
        else:
            preds[pos] = p
    return preds[0] if var_indices is None else preds
