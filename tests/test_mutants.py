"""A catalogue of design mutants, each with the defining identities that
must catch it.

A mutant is a preset bundle with one map or matrix perturbed through
dataclasses.replace. Each must fail validate_bundle at its defaults, and
the report must name exactly the identities listed beside it. Mutation
testing is the model (DeMillo, Lipton & Sayward, "Hints on test data
selection: help for the practicing programmer", IEEE Computer 11(4), 1978).

This is the validate half of the catalogue. A run reads alpha only through
its orbit samples, and a 1% faster target traces the same closed curve, so
no orbit distance can see the alpha mutant: catching it is the immersion
residual's job.
"""

import dataclasses

import pytest

from iiorbit import plants
from iiorbit.core import RESIDUAL_MAXIMA, validate_bundle

IMMERSION, BOUNDARY, OFF_MANIFOLD = (
    "immersion residual", "boundary-condition residual", "off-manifold dynamics mismatch"
)


def each_output(bundle, name, change):
    """The bundle with kernel `name` (v or alpha) replaced by one that
    applies `change` to each of its output components."""
    kernel = getattr(bundle, name)
    mutant = lambda *args: tuple(change(c) for c in kernel(*args))
    return dataclasses.replace(bundle, **{name: mutant})


def scale_z_matrix(bundle, factor):
    rows = tuple(tuple(factor * entry for entry in row) for row in bundle.z_matrix)
    return dataclasses.replace(bundle, z_matrix=rows)


# name, mutation, and the identities whose residual it must push over tolerance
CATALOGUE = (
    ("v x 1.05", lambda b: each_output(b, "v", lambda u: 1.05 * u), {BOUNDARY, OFF_MANIFOLD}),
    ("v + 1e-3", lambda b: each_output(b, "v", lambda u: u + 1e-3), {BOUNDARY, OFF_MANIFOLD}),
    ("alpha x 1.01", lambda b: each_output(b, "alpha", lambda a: 1.01 * a), {IMMERSION, BOUNDARY}),
    ("Lambda x 1.2", lambda b: scale_z_matrix(b, 1.2), {OFF_MANIFOLD}),
)
LABELS = {label for _, _, label, _ in RESIDUAL_MAXIMA}


@pytest.mark.parametrize("preset", plants.PRESETS)
@pytest.mark.parametrize(
    "mutate, expected", [entry[1:] for entry in CATALOGUE], ids=[entry[0] for entry in CATALOGUE]
)
def test_validate_catches_mutant(bundles, preset, mutate, expected):
    assert validate_bundle(bundles[preset]).passed
    failures = validate_bundle(mutate(bundles[preset])).failures()
    named = [label for label in LABELS for f in failures if f.startswith(f"{label} ")]
    assert len(named) == len(failures) and set(named) == expected, failures
