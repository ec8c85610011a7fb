"""Attribute indexing for matchmaking throughput — S7 in DESIGN.md.

The naive matchmaking algorithm evaluates every (customer, provider)
Constraint pair: O(N·M) full expression evaluations per negotiation
cycle.  The paper observes (Section 5) that real pools "exhibit a high
degree of regularity"; this module exploits *value regularity* directly
by pre-filtering providers on indexable predicates extracted from the
customer's Constraint (:func:`~repro.matchmaking.groups.extract_predicates`).

Extraction is conservative and the filter is **sound**: a provider is
pruned only if some top-level conjunct of the customer's Constraint is
*provably* false against it.  Providers whose indexed attribute is not a
concrete constant (policy expressions, missing attributes) are never
pruned.  Soundness is enforced by a hypothesis property test comparing
indexed and naive match sets, and the speedup is measured by the E6
ablation benchmark.

Since PR 4 the index is **delta-maintained**: :meth:`ProviderIndex.add`
/ :meth:`~ProviderIndex.remove` / :meth:`~ProviderIndex.replace` update
the posting lists in place, so a long-lived matchmaker pays O(attrs)
per advertisement instead of an O(N) rebuild per negotiation cycle.
Provider ids are stable across deltas (``replace`` keeps the id), which
preserves the deterministic input-order tie-break of the naive matcher.
Correctness never depends on the delta bookkeeping: any inconsistency
marks the index *dirty* and the next operation falls back to a full
rebuild from the authoritative ad collection — the ``index.rebuilds``
counter makes that fallback observable (a steady-state pool should show
exactly the initial build).

:class:`MaintainedIndex` layers the advertising protocol on top: a
name-keyed membership view (``Type == "Machine"`` by default) that the
:class:`~repro.matchmaking.matchmaker.Matchmaker` and the simulated
collector keep in sync with advertise/withdraw/expiry.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..classads import ClassAd, is_true
from ..classads.compile import compile_expr
from ..classads.values import is_number, is_string
from ..obs import metrics as _metrics
from .groups import Predicate, extract_predicates
from .match import DEFAULT_POLICY, MatchPolicy

# Observability: a "hit" is a lookup whose constraint yielded at least
# one indexable predicate (the index could prune); a "miss" fell back
# to the full provider list.  Pruned/candidate totals quantify how much
# work the index saves ahead of full constraint evaluation, and the
# delta/rebuild counters watch the incremental-maintenance machinery —
# a steady-state pool performs deltas only.
_IDX_HITS = _metrics.counter(
    "index.hits", "lookups where indexable predicates pruned the pool"
)
_IDX_MISSES = _metrics.counter(
    "index.misses", "lookups with no indexable predicate (full scan)"
)
_IDX_CANDIDATES = _metrics.counter(
    "index.candidates", "providers surviving index pre-filtering"
)
_IDX_PRUNED = _metrics.counter(
    "index.pruned", "providers eliminated by index pre-filtering"
)
_IDX_DELTA = _metrics.counter(
    "index.delta_updates", "incremental index updates (add/remove/replace)"
)
_IDX_REBUILDS = _metrics.counter(
    "index.rebuilds", "full index (re)builds, including the initial build"
)

#: Attributes indexed for equality by default: the discrete machine
#: descriptors every job constrains on.
DEFAULT_EQUALITY_ATTRS = ("type", "arch", "opsys", "state")

#: Attributes indexed for range predicates by default.
DEFAULT_RANGE_ATTRS = ("memory", "disk", "mips", "kflops")


#: Sentinel above any provider id, for bisecting (value, pid) pairs.
_PID_INF = float("inf")


class ProviderIndex:
    """A delta-maintained index over a collection of provider ads.

    Equality attributes map concrete values to provider-id sets; range
    attributes keep ``(value, pid)`` pairs sorted for bisect pruning.
    Providers whose attribute does not evaluate to a concrete constant
    (policy expressions, missing attributes) join that attribute's
    wildcard set and are never pruned on it.

    Provider ids are assigned at insertion and *stable*: ``replace``
    re-indexes a refreshed advertisement under its old id, so the
    candidate order (ascending id = insertion order) matches what a
    naive scan of the same ad collection would see.  Posting-list
    membership per provider is remembered in an undo log, so removal is
    exact even if the ad object was mutated since insertion; any
    bookkeeping surprise instead sets a dirty flag and the next
    operation rebuilds from scratch — correctness never rests on the
    delta path.
    """

    def __init__(
        self,
        providers: Sequence[ClassAd] = (),
        equality_attrs: Iterable[str] = DEFAULT_EQUALITY_ATTRS,
        range_attrs: Iterable[str] = DEFAULT_RANGE_ATTRS,
    ):
        self.equality_attrs = {a.lower() for a in equality_attrs}
        self.range_attrs = {a.lower() for a in range_attrs}
        self._ads: Dict[int, ClassAd] = {}  # pid -> ad, insertion order
        self._pid_of: Dict[int, int] = {}  # id(ad) -> pid
        self._next_pid = 0
        # pid -> posting-list entries to undo on removal
        self._undo: Dict[int, List[Tuple]] = {}
        self._eq: Dict[str, Dict[object, Set[int]]] = {}
        self._eq_wild: Dict[str, Set[int]] = {}
        # attr -> sorted [(value, pid), ...]
        self._range: Dict[str, List[Tuple[float, int]]] = {}
        self._range_wild: Dict[str, Set[int]] = {}
        self._dirty = False
        self._provider_list: Optional[List[ClassAd]] = None
        #: Always-on instance tallies (benchmarks assert on these without
        #: enabling the metrics registry).
        self.rebuilds = 0
        self.delta_updates = 0
        for ad in providers:
            pid = self._next_pid
            self._next_pid += 1
            self._ads[pid] = ad
            self._pid_of[id(ad)] = pid
        self._rebuild()

    # -- construction / maintenance ---------------------------------------

    def _rebuild(self) -> None:
        """Rebuild every posting list from ``self._ads`` (the fallback)."""
        self._eq = {attr: {} for attr in self.equality_attrs}
        self._eq_wild = {attr: set() for attr in self.equality_attrs}
        self._range = {attr: [] for attr in self.range_attrs}
        self._range_wild = {attr: set() for attr in self.range_attrs}
        self._undo = {}
        for pid, ad in self._ads.items():
            self._index_ad(pid, ad, sort_ranges=False)
        for pairs in self._range.values():
            pairs.sort()
        self._dirty = False
        self._provider_list = None
        self.rebuilds += 1
        if _metrics.enabled:
            _IDX_REBUILDS.inc()

    def _index_ad(self, pid: int, ad: ClassAd, sort_ranges: bool = True) -> None:
        """Insert *ad*'s postings under *pid*, recording the undo log."""
        undo: List[Tuple] = []
        for attr in self.equality_attrs:
            value = self._concrete(ad, attr)
            if value is None:
                self._eq_wild[attr].add(pid)
                undo.append(("ew", attr))
            else:
                key = value.lower() if isinstance(value, str) else value
                self._eq[attr].setdefault(key, set()).add(pid)
                undo.append(("eq", attr, key))
        for attr in self.range_attrs:
            value = self._concrete(ad, attr)
            if is_number(value):
                pair = (float(value), pid)
                if sort_ranges:
                    bisect.insort(self._range[attr], pair)
                else:
                    self._range[attr].append(pair)
                undo.append(("r", attr, pair))
            else:
                self._range_wild[attr].add(pid)
                undo.append(("rw", attr))
        self._undo[pid] = undo

    def _unindex_ad(self, pid: int) -> None:
        """Undo exactly the postings recorded for *pid*."""
        for entry in self._undo.pop(pid, ()):
            kind = entry[0]
            if kind == "eq":
                _, attr, key = entry
                postings = self._eq[attr].get(key)
                if postings is None:
                    self._dirty = True
                    continue
                postings.discard(pid)
                if not postings:
                    del self._eq[attr][key]
            elif kind == "ew":
                self._eq_wild[entry[1]].discard(pid)
            elif kind == "r":
                _, attr, pair = entry
                pairs = self._range[attr]
                i = bisect.bisect_left(pairs, pair)
                if i < len(pairs) and pairs[i] == pair:
                    pairs.pop(i)
                else:  # postings drifted — fall back to a rebuild
                    self._dirty = True
            else:  # "rw"
                self._range_wild[entry[1]].discard(pid)

    def _settle(self) -> None:
        if self._dirty:
            self._rebuild()

    def add(self, ad: ClassAd) -> None:
        """Index *ad* (appended in candidate order); re-adding the same
        object refreshes its postings in place."""
        self._settle()
        pid = self._pid_of.get(id(ad))
        if pid is not None:  # same object re-advertised: refresh postings
            self._unindex_ad(pid)
        else:
            pid = self._next_pid
            self._next_pid += 1
            self._pid_of[id(ad)] = pid
            self._ads[pid] = ad
            self._provider_list = None
        self._index_ad(pid, ad)
        self.delta_updates += 1
        if _metrics.enabled:
            _IDX_DELTA.inc()

    def remove(self, ad: ClassAd) -> bool:
        """Drop *ad* from the index; False when it was not indexed."""
        self._settle()
        pid = self._pid_of.pop(id(ad), None)
        if pid is None:
            return False
        del self._ads[pid]
        self._unindex_ad(pid)
        self._provider_list = None
        self.delta_updates += 1
        if _metrics.enabled:
            _IDX_DELTA.inc()
        return True

    def replace(self, old: ClassAd, new: ClassAd) -> None:
        """Swap a refreshed advertisement in under *old*'s provider id,
        preserving its position in the candidate order."""
        if old is new:
            self.add(new)
            return
        self._settle()
        pid = self._pid_of.pop(id(old), None)
        if pid is None:  # unknown predecessor: plain append
            self.add(new)
            return
        self._unindex_ad(pid)
        self._ads[pid] = new
        self._pid_of[id(new)] = pid
        self._index_ad(pid, new)
        self._provider_list = None
        self.delta_updates += 1
        if _metrics.enabled:
            _IDX_DELTA.inc()

    def refresh(self) -> None:
        """Force a full rebuild (e.g. after mutating indexed ads in
        place, which the delta path cannot observe)."""
        self._dirty = True
        self._settle()

    @staticmethod
    def _concrete(ad: ClassAd, attr: str):
        value = ad.evaluate(attr)
        if is_string(value) or is_number(value):
            return value
        return None

    @property
    def providers(self) -> List[ClassAd]:
        """The indexed ads in candidate (insertion) order."""
        cached = self._provider_list
        if cached is None:
            cached = self._provider_list = list(self._ads.values())
        return cached

    def __len__(self) -> int:
        return len(self._ads)

    def __contains__(self, ad: object) -> bool:
        return id(ad) in self._pid_of

    # -- pruning -----------------------------------------------------------

    def candidate_ids(self, predicates: Iterable[Predicate]) -> Set[int]:
        """Provider ids surviving every applicable predicate."""
        self._settle()
        surviving = set(self._ads)
        for pred in predicates:
            allowed = self._allowed_for(pred)
            if allowed is not None:
                surviving &= allowed
                if not surviving:
                    break
        return surviving

    def _allowed_for(self, pred: Predicate) -> Optional[Set[int]]:
        attr = pred.attr
        if pred.op == "==" and attr in self.equality_attrs:
            key = pred.value.lower() if isinstance(pred.value, str) else pred.value
            return self._eq[attr].get(key, set()) | self._eq_wild[attr]
        if pred.op in ("<", "<=", ">", ">=") and attr in self.range_attrs:
            if not is_number(pred.value):
                return None
            pairs = self._range[attr]
            bound = float(pred.value)
            if pred.op == ">":
                chosen = pairs[bisect.bisect_right(pairs, (bound, _PID_INF)):]
            elif pred.op == ">=":
                chosen = pairs[bisect.bisect_left(pairs, (bound,)):]
            elif pred.op == "<":
                chosen = pairs[: bisect.bisect_left(pairs, (bound,))]
            else:  # <=
                chosen = pairs[: bisect.bisect_right(pairs, (bound, _PID_INF))]
            return {pid for _, pid in chosen} | self._range_wild[attr]
        return None

    def candidates_for(
        self, customer: ClassAd, policy: MatchPolicy = DEFAULT_POLICY
    ) -> List[ClassAd]:
        """Providers that *might* match *customer* (sound superset).

        A customer without a constraint gets every provider.  Candidates
        come back in insertion order, matching a naive scan of the same
        ad collection.
        """
        self._settle()
        name = policy.constraint_of(customer)
        if name is None:
            if _metrics.enabled:
                _IDX_MISSES.inc()
                _IDX_CANDIDATES.inc(len(self._ads))
            return list(self.providers)
        predicates = extract_predicates(customer[name], customer)
        ids = self.candidate_ids(predicates)
        if _metrics.enabled:
            if predicates:
                _IDX_HITS.inc()
            else:
                _IDX_MISSES.inc()
            _IDX_CANDIDATES.inc(len(ids))
            _IDX_PRUNED.inc(len(self._ads) - len(ids))
        ads = self._ads
        return [ads[i] for i in sorted(ids)]


class MaintainedIndex:
    """A persistent, name-keyed :class:`ProviderIndex` for a long-lived
    matchmaker.

    The advertising protocol names ads; this wrapper tracks which names
    currently satisfy the membership *constraint* (the matchmaker's
    provider filter, ``Type == "Machine"`` by default) and keeps the
    underlying index in sync by deltas as ads are advertised, withdrawn,
    or expired — instead of re-selecting and re-indexing the whole
    collection every negotiation cycle.

    One ordering subtlety: the naive matcher scans ads in first-
    advertisement order, and a re-advertisement under an existing name
    keeps its original position (dict semantics).  ``replace`` preserves
    that.  The one case deltas cannot preserve — a known name that
    *becomes* a member (e.g. an ad re-advertised with a new Type) would
    append rather than keep its historical slot — makes
    :meth:`advertise` return False, telling the owner to discard this
    instance and rebuild in authoritative order.
    """

    def __init__(
        self,
        constraint: Optional[str] = 'Type == "Machine"',
        items: Iterable[Tuple[str, ClassAd]] = (),
        equality_attrs: Iterable[str] = DEFAULT_EQUALITY_ATTRS,
        range_attrs: Iterable[str] = DEFAULT_RANGE_ATTRS,
    ):
        from ..classads import parse

        self.constraint_source = constraint
        self._admit = compile_expr(parse(constraint)) if constraint else None
        self._members: Dict[str, ClassAd] = {}
        for name, ad in items:
            if self._belongs(ad):
                self._members[name] = ad
        self.index = ProviderIndex(
            list(self._members.values()), equality_attrs, range_attrs
        )

    def _belongs(self, ad: ClassAd) -> bool:
        return self._admit is None or is_true(self._admit.evaluate(ad))

    def advertise(self, name: str, ad: ClassAd, had_prior: bool = False) -> bool:
        """Fold one advertisement in; *had_prior* says whether the owner's
        ad collection already knew *name*.  Returns False when candidate
        order can no longer be preserved (caller should drop and lazily
        rebuild)."""
        old = self._members.get(name)
        belongs = self._belongs(ad)
        if old is not None:
            if belongs:
                self._members[name] = ad
                self.index.replace(old, ad)
            else:
                del self._members[name]
                self.index.remove(old)
            return True
        if belongs:
            if had_prior:
                # The name existed as a non-member; appending now would
                # put it after ads it historically precedes.
                return False
            self._members[name] = ad
            self.index.add(ad)
        return True

    def withdraw(self, name: str) -> None:
        old = self._members.pop(name, None)
        if old is not None:
            self.index.remove(old)

    def clear(self) -> None:
        self._members.clear()
        self.index = ProviderIndex(
            (), self.index.equality_attrs, self.index.range_attrs
        )

    def providers(self) -> List[ClassAd]:
        """Member ads in candidate (first-advertisement) order."""
        return self.index.providers

    def __len__(self) -> int:
        return len(self._members)
