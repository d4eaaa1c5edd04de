"""Order-k Markov chains with exact analytic information values.

These are the validation oracles: a fully specified chain whose stationary
distribution, AIS, and transition entropy can be computed exactly, against
which the plug-in estimators are checked.
"""

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .gaze import _field, _json_list, _load_json, _whole_number
from .sequences import SymbolSequence, _as_lag_tuple

_PI_TOL = 1e-12
_PI_MAX_ITER = 10 ** 6


@dataclass
class MarkovSpec:
    """An order-k chain: one probability vector over symbols per history.

    `transition` maps every length-`order` history tuple (oldest symbol
    first) to a probability vector of length `alphabet_size`. Order 0 means
    i.i.d. sampling and uses the single empty-tuple history.

    `rows` is the same table as one (m^k, m) array in `itertools.product`
    order (oldest symbol most significant); order 0 is lifted to k = 1 with
    m identical rows, so the history space is never degenerate.
    """

    order: int
    alphabet_size: int
    transition: Dict[Tuple[int, ...], np.ndarray]
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.order = _whole_number(self.order, "order")
        self.alphabet_size = _whole_number(self.alphabet_size, "alphabet_size")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        m = self.alphabet_size
        clean, given = {}, {}
        for hist, vec in self.transition.items():
            key = tuple(_whole_number(s, f"history {tuple(hist)}: symbol") for s in hist)
            if key in given:
                raise ValueError(f"history keys {given[key]!r} and {hist!r} "
                                 f"both name history {key}")
            given[key] = hist
            if len(key) != self.order:
                raise ValueError(f"history {key} has length {len(key)}, expected {self.order}")
            if any(s < 0 or s >= m for s in key):
                raise ValueError(f"history {key} contains out-of-range symbols")
            try:
                v = np.asarray(vec)
                numeric = v.dtype.kind in "iuf"
            except ValueError:  # a ragged list
                numeric = False
            if not numeric:
                raise ValueError(f"history {key}: probabilities must be numbers, got {vec!r}")
            v = v.astype(np.float64)
            if v.shape != (m,):
                raise ValueError(f"history {key}: probability vector must have length {m}")
            if np.any(v < -1e-15):
                raise ValueError(f"history {key}: negative probability")
            if not abs(v.sum() - 1.0) <= 1e-12:  # NaN fails too
                raise ValueError(f"history {key}: probabilities sum to {v.sum()}, not 1")
            clean[key] = np.clip(v, 0.0, None)
        expected = m ** self.order
        if len(clean) != expected:
            raise ValueError(
                f"transition table covers {len(clean)} histories, expected {expected}"
            )
        self.transition = clean
        self.rows = np.array([clean[hist[:self.order]] for hist in
                              itertools.product(range(m), repeat=max(self.order, 1))])

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "alphabet_size": self.alphabet_size,
            "transition": {
                ",".join(str(s) for s in hist): [float(p) for p in vec]
                for hist, vec in sorted(self.transition.items())
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MarkovSpec":
        """Inverse of `to_json_dict`; a missing or malformed field is an
        error that names it."""
        owner = "Markov spec"
        order, alphabet_size = (
            _whole_number(_field(doc, key, owner), f"{owner}: {key}")
            for key in ("order", "alphabet_size"))
        table = _field(doc, "transition", owner)
        if not isinstance(table, dict):
            raise ValueError(f"{owner}: transition must be a JSON object, "
                             f"got {type(table).__name__}")
        transition, keys = {}, {}
        for key, vec in table.items():
            try:
                hist = tuple(int(s) for s in key.split(",")) if key else ()
            except ValueError:
                raise ValueError(f"{owner}: history key {key!r} must be "
                                 f"comma-separated symbol ids") from None
            if hist in keys:
                raise ValueError(f"{owner}: history keys {keys[hist]!r} and "
                                 f"{key!r} both name history {hist}")
            keys[hist] = key
            transition[hist] = _json_list(vec, f"{owner}: history {key!r}")
        return cls(order=order, alphabet_size=alphabet_size,
                   transition=transition)


def load_markov_spec(path) -> MarkovSpec:
    return _load_json(path, MarkovSpec.from_json_dict)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate(spec: MarkovSpec, length: int, seed: int,
             burn_in: int = 1000) -> SymbolSequence:
    """Sample the chain from a uniform random initial history.

    Discards `burn_in` symbols, then records exactly `length`. Deterministic
    given the seed.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    n_states, m = spec.rows.shape
    cums = np.cumsum(spec.rows, axis=1).tolist()
    rng = np.random.default_rng(seed)
    h = int(rng.integers(n_states))
    mod_base = n_states // m
    draws = rng.random(burn_in + length)
    out = np.empty(length, dtype=np.int64)
    for i in range(burn_in + length):
        a = bisect_right(cums[h], draws[i])
        if a >= m:  # cumulative sum may fall a few ulp short of 1.0
            a = m - 1
        if i >= burn_in:
            out[i - burn_in] = a
        h = (h % mod_base) * m + a
    return SymbolSequence(out, m)


# ---------------------------------------------------------------------------
# exact analytic values
# ---------------------------------------------------------------------------

def _check_irreducible(rows: np.ndarray):
    """Reject chains whose history graph is not strongly connected.

    History h = (s_1 .. s_k) steps to (s_2 .. s_k, a) where rows[h, a] > 0:
    its successors are (h mod m^(k-1))·m + a, and its predecessors are
    s·m^(k-1) + h // m for each s whose row gives h's last symbol mass. A
    breadth-first search from history 0 along each puts every history in
    its frontier at most once, so the work is linear in the edges.
    """
    n_states, m = rows.shape
    mod_base = n_states // m
    positive = rows > 0.0
    slot = np.empty(n_states, dtype=np.int64)
    for forward in (True, False):
        seen = np.zeros(n_states, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            if forward:
                src, a = np.nonzero(positive[frontier])
                found = (frontier[src] % mod_base) * m + a
            else:
                cand = np.arange(m) * mod_base + (frontier // m)[:, None]
                found = cand[positive[cand, (frontier % m)[:, None]]]
            found = found[~seen[found]]
            pos = np.arange(found.size)
            slot[found] = pos  # exactly one position per history wins
            frontier = found[slot[found] == pos]
            seen[frontier] = True
        if not seen.all():
            raise ValueError(
                "chain is reducible: the history graph is not strongly connected"
            )


def stationary_distribution(spec: MarkovSpec) -> np.ndarray:
    """Stationary distribution over the m^k history states.

    Computed by power iteration on the half-lazy kernel (P + I)/2, which has
    the same fixed point as P but converges geometrically even for periodic
    chains (e.g. deterministic cycles). Reducible chains are rejected.
    For order 0 the history space is the single last symbol, so the result
    is the i.i.d. symbol distribution itself. P is applied through
    `spec.rows`, never built: the mass arriving at (s_2 .. s_k, a) sums over
    the dropped oldest symbol, so memory grows as m^(k+1), not m^(2k).
    """
    rows = spec.rows
    n_states, m = rows.shape
    if n_states == 1:
        return np.ones(1)
    _check_irreducible(rows)
    x = np.full(n_states, 1.0 / n_states)
    for _ in range(_PI_MAX_ITER):
        # At order <= 1 the next history is the next symbol, so P is `rows`
        # itself and x @ P is one matrix product.
        xp = (x @ rows if n_states == m
              else (x.reshape(m, -1, 1) * rows.reshape(m, -1, m)).sum(axis=0).ravel())
        y = 0.5 * (x + xp)
        resid = float(np.abs(y - x).sum())
        x = y
        if resid < _PI_TOL:
            break
    else:
        raise ValueError(
            f"power iteration did not reach residual {_PI_TOL} "
            f"within {_PI_MAX_ITER} iterations"
        )
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _window_joint(spec: MarkovSpec, window: int) -> np.ndarray:
    """Exact stationary joint over `window` consecutive symbols.

    Axis j holds the symbol at position j of the window, oldest first, so
    the last axis is x_t.
    """
    m = spec.alphabet_size
    k = max(spec.order, 1)
    pi = stationary_distribution(spec)
    joint = pi.reshape((m,) * k)
    if window <= k:
        return joint.sum(axis=tuple(range(k - window)))
    T = spec.rows.reshape((m,) * k + (m,))
    for j in range(k, window):
        T_b = T.reshape((1,) * (j - k) + (m,) * (k + 1))
        joint = joint[..., None] * T_b
    return joint


def _dist_entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def analytic_entropy(spec: MarkovSpec) -> float:
    """Exact entropy of the stationary symbol distribution, in bits."""
    return _dist_entropy(_window_joint(spec, 1))


def analytic_ais(spec: MarkovSpec, lags) -> float:
    """Exact AIS for the given lag set, in bits.

    Marginalizes the stationary process over the full contiguous window
    [t - max(lags), t] and then drops unused coordinates, which keeps the
    joint correct for non-contiguous lag sets. For lags covering [1, k]
    this equals H(X_t) - H(X_t | full order-k history).
    """
    lag_t = _as_lag_tuple(lags)
    if not lag_t:
        raise ValueError("analytic AIS needs a nonempty lag set")
    w = lag_t[-1] + 1
    joint = _window_joint(spec, w)
    target_axis = w - 1
    keep = sorted({target_axis} | {target_axis - l for l in lag_t})
    drop = tuple(a for a in range(w) if a not in keep)
    sub = joint.sum(axis=drop) if drop else joint
    # After dropping, the target is the last remaining axis.
    h_joint = _dist_entropy(sub)
    h_t = _dist_entropy(sub.sum(axis=tuple(range(sub.ndim - 1))))
    h_p = _dist_entropy(sub.sum(axis=-1))
    return h_t + h_p - h_joint


def analytic_gte(spec: MarkovSpec) -> float:
    """Exact H(X_t | X_{t-1}) of the stationary chain, in bits."""
    joint = _window_joint(spec, 2)
    return _dist_entropy(joint) - _dist_entropy(joint.sum(axis=1))


# ---------------------------------------------------------------------------
# benchmark chains used by tests, the validate command, and simulations
# ---------------------------------------------------------------------------

def uniform_iid_spec(m: int) -> MarkovSpec:
    """Order-0 uniform i.i.d. source over m symbols (zero memory)."""
    return MarkovSpec(0, m, {(): np.full(m, 1.0 / m)})


def cycle_spec(m: int) -> MarkovSpec:
    """Deterministic m-cycle 0 -> 1 -> ... -> m-1 -> 0 (fully predictable)."""
    transition = {}
    for s in range(m):
        vec = np.zeros(m)
        vec[(s + 1) % m] = 1.0
        transition[(s,)] = vec
    return MarkovSpec(1, m, transition)


def persistence_spec(p_stay: float, m: int = 2) -> MarkovSpec:
    """Order-1 chain that repeats its last symbol with probability p_stay."""
    if not (0.0 < p_stay < 1.0):
        raise ValueError("p_stay must lie in (0, 1)")
    return lagged_copy_spec(1, p_stay, m)


def lagged_copy_spec(lag: int, p_copy: float, m: int = 2) -> MarkovSpec:
    """Order-`lag` chain copying the symbol `lag` steps back with p_copy.

    With the other symbols equiprobable. For lag 2 on a binary alphabet the
    even and odd sub-sequences are independent persistence chains, so the
    immediate past carries no information and only lag 2 is informative.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if not (0.0 < p_copy < 1.0):
        raise ValueError("p_copy must lie in (0, 1)")
    off = (1.0 - p_copy) / (m - 1) if m > 1 else 0.0
    transition = {}
    for hist in itertools.product(range(m), repeat=lag):
        vec = np.full(m, off)
        vec[hist[0]] = p_copy  # hist[0] is the oldest symbol = lag steps back
        transition[hist] = vec
    return MarkovSpec(lag, m, transition)
