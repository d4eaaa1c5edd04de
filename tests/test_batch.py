"""Every trial's tests run in lockstep: the batch changes no draw and no
result."""

import hashlib
import json

import numpy as np
import pytest

import gazeais.embedding
import gazeais.stats
from gazeais import (RunConfig, ScanpathRecord, analyze_trial, analyze_trials,
                     compare_conditions, derive_seed, generate, infocore,
                     lagged_copy_spec, persistence_spec)

CFG = RunConfig(k_max=4, n_perm_selection=100, n_perm_comparison=300, seed=8)


def mixed_records():
    """Binary, 4-AOI and 16-AOI trials of 40, 120 and 300 symbols, a
    constant trial and a skipped one, in conditions A and B of one
    participant."""
    records = []
    for alphabet, spec in ((2, persistence_spec(0.8)),
                           (4, lagged_copy_spec(2, 0.6, m=4)),
                           (16, lagged_copy_spec(1, 0.5, m=16))):
        for length in (40, 120, 300):
            seq = generate(spec, length, seed=derive_seed(30, alphabet, length))
            records.append(ScanpathRecord(f"m{alphabet}n{length}", "p",
                                          "AB"[len(records) % 2], seq.symbols,
                                          alphabet))
    records.append(ScanpathRecord("constant", "p", "A", np.full(60, 2), 4))
    records.append(ScanpathRecord("short", "p", "B", np.array([0, 1, 1, 0, 1, 1, 0]), 2))
    return records


class Recorder:
    """A generator that records each draw call: the method and its sizes."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def multivariate_hypergeometric(self, colors, nsample, size=None, method="marginals"):
        self._calls.append(("mvh", tuple(int(c) for c in colors), int(nsample),
                            size, method))
        return self._rng.multivariate_hypergeometric(colors, nsample, size=size,
                                                     method=method)

    def hypergeometric(self, ngood, nbad, nsample):
        self._calls.append(("hyp",) + tuple(
            hashlib.sha256(np.asarray(a, dtype=np.int64).tobytes()).hexdigest()[:12]
            for a in (ngood, nbad, nsample)))
        return self._rng.hypergeometric(ngood, nbad, nsample)

    def permuted(self, x, axis=None, out=None):
        self._calls.append(("perm", x.shape, axis))
        return self._rng.permuted(x, axis=axis, out=out)


def record_draws(monkeypatch):
    """Every generator's draw calls in order, by the repr of its seed keys."""
    calls = {}
    for module in (gazeais.embedding, gazeais.stats):
        derive = module.derive_rng
        monkeypatch.setattr(module, "derive_rng", lambda *keys, derive=derive: Recorder(
            derive(*keys), calls.setdefault(repr(keys), [])))
    return calls


def summary(calls):
    """(generators, calls by method, tallies drawn, digest of every call)."""
    methods = {}
    for seq in calls.values():
        for call in seq:
            methods[call[0]] = methods.get(call[0], 0) + 1
    tallies = sum(call[3] for seq in calls.values() for call in seq if call[0] == "mvh")
    return (len(calls), methods, tallies,
            hashlib.sha256(repr(sorted(calls.items())).encode()).hexdigest())


# The record of the mixed design's `ais` run, as each trial drew alone
# before its tests ran in lockstep: tallies of binary steps, the tables of
# final tests and permutations of the 16-AOI and constant trials.
PINNED_DRAWS = (24, {"mvh": 13, "hyp": 11, "perm": 28}, 325,
                "111994c82529e01b9e3284593ea53c80360290125edd11fe93520484cdc8a9da")


def test_draws_pinned(monkeypatch):
    # A round that drew past a test's stop, or drew in another order or
    # size, changes the record.
    calls = record_draws(monkeypatch)
    batched = analyze_trials(mixed_records(), CFG)
    assert summary(calls) == PINNED_DRAWS
    recorded = {keys: list(seq) for keys, seq in calls.items()}
    calls.clear()
    alone = [analyze_trial(rec, CFG) for rec in mixed_records()]
    assert calls == recorded
    assert [r.to_dict() for r in batched] == [r.to_dict() for r in alone]


@pytest.mark.parametrize("elements, multiplies", [
    (infocore.SURROGATE_BLOCK_ELEMENTS, infocore.PRODUCT_MULTIPLIES),
    (1, infocore.PRODUCT_MULTIPLIES),  # a chunk per test
    (10 ** 9, infocore.PRODUCT_MULTIPLIES),  # one chunk
    (infocore.SURROGATE_BLOCK_ELEMENTS, 0)])  # tallies summed by gathering
def test_batching_changes_no_result(monkeypatch, elements, multiplies):
    monkeypatch.setattr(infocore, "SURROGATE_BLOCK_ELEMENTS", elements)
    monkeypatch.setattr(infocore, "PRODUCT_MULTIPLIES", multiplies)
    records = mixed_records()
    expected = [analyze_trial(rec, CFG).to_dict() for rec in records]
    assert [r.to_dict() for r in analyze_trials(records, CFG)] == expected
    assert [r.to_dict() for r in analyze_trials(records[::-1], CFG)] == expected[::-1]
    halves = analyze_trials(records[:5], CFG) + analyze_trials(records[5:], CFG)
    assert [r.to_dict() for r in halves] == expected
    assert analyze_trials([], CFG) == []


def test_compare_conditions_pinned():
    # The contrasts, means and union of the mixed design, as the protocol
    # gave them with one trial analysed at a time; the entropy contrast as
    # it draws from the AIS contrast's stream, since their groups have the
    # same sizes (the constant trial leaves the normalized contrast, which
    # keeps its own stream).
    comp = compare_conditions(mixed_records()[::-1], CFG)
    assert comp.union_lags.lags == (1, 2)
    assert {m: (c.observed_diff, c.p_value) for m, c in comp.contrasts.items()} == {
        "ais": (0.09401279617015335, 0.9169435215946844),
        "entropy": (-0.155893544276563, 0.8372093023255814),
        "normalized_ais": (0.03714782353206725, 0.8604651162790697)}
    assert comp.means == {
        "ais": {"A": 1.1990140052633451, "B": 1.1050012090931918},
        "entropy": {"A": 1.8157628422049246, "B": 1.9716563864814876},
        "normalized_ais": {"A": 0.48723427336295344, "B": 0.4500864498308862}}
    assert hashlib.sha256(json.dumps(comp.to_dict(), sort_keys=True).encode()
                          ).hexdigest() == (
        "9f836cea22d03639ee87e0f53b0029e179bf38b3da8dad3e18ff963437d9874f")
