"""Property-based tests for the soft-state ad store (S9)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classads import ClassAd
from repro.protocols import AdStore

names = st.sampled_from([f"m{i}" for i in range(5)])
# Round values besides arbitrary floats, so that expiry times tie.
steps = st.one_of(st.sampled_from([0.0, 5.0, 10.0]), st.floats(min_value=0, max_value=100))
lifetimes = st.one_of(st.sampled_from([10.0, 20.0]), st.floats(min_value=1, max_value=50))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), names, steps, lifetimes,
                  st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("touch"), names, steps, lifetimes,
                  st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("remove"), names),
        st.tuples(st.just("expire"), st.one_of(steps, st.floats(min_value=0, max_value=200))),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


def replay(operations):
    """Apply operations with a monotone clock; mirror into a dict model."""
    store = AdStore()
    model = {}  # name -> (expires_at, sequence)
    now = 0.0
    for op in operations:
        if op[0] == "insert":
            _, name, dt, lifetime, seq = op
            now += dt
            accepted = store.insert(name, ClassAd({"Name": name}), now=now,
                                    lifetime=lifetime, sequence=seq)
            old = model.get(name)
            should_accept = old is None or seq >= old[1]
            assert accepted == should_accept
            if should_accept:
                model[name] = (now + lifetime, seq)
        elif op[0] == "touch":
            _, name, dt, lifetime, seq = op
            now += dt
            renewed = store.touch(name, now=now, lifetime=lifetime, sequence=seq)
            old = model.get(name)
            if old is None:
                assert renewed is None
            elif seq < old[1]:
                assert renewed is False
            else:
                assert renewed is True
                model[name] = (now + lifetime, seq)
        elif op[0] == "remove":
            _, name = op
            assert store.remove(name) == (name in model)
            model.pop(name, None)
        elif op[0] == "clear":
            store.clear()
            model.clear()
        else:
            _, dt = op
            now += dt
            # Reaped in (expires_at, name) order, ties broken by name.
            due = sorted((exp, n) for n, (exp, _) in model.items() if exp <= now)
            assert store.expire(now) == [n for _, n in due]
            for _, name in due:
                del model[name]
    return store, model, now


class TestAdStoreModel:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_store_matches_reference_model(self, operations):
        store, model, now = replay(operations)
        assert set(store) == set(model)
        assert len(store) == len(model)

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_expire_is_idempotent(self, operations):
        store, model, now = replay(operations)
        store.expire(now)  # flush anything due exactly now
        assert store.expire(now) == []

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_stored_ads_are_retrievable(self, operations):
        store, model, now = replay(operations)
        for name in model:
            ad = store.get(name)
            assert ad is not None
            assert ad.evaluate("Name") == name

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_expiry_heap_stays_bounded(self, operations):
        """The lazily-invalidated heap may hold stale entries, but the
        compaction guard keeps it within a constant factor of the store."""
        store, model, now = replay(operations)
        assert len(store._expiry_heap) <= 4 * len(store._store) + 64

    def test_renewals_at_a_constant_lifetime_queue_each_lease_once(self):
        """A renewal that moves the expiry later pushes no heap entry:
        100 leases renewed 49 times leave 100 entries, and the sweep
        still reaps them at their last expiry, in name order."""
        store = AdStore()
        names = [f"m{i}" for i in range(100)]
        for name in names:
            store.insert(name, ClassAd({"Name": name}), now=0.0, lifetime=30.0)
        for renewal in range(1, 50):
            for name in names:
                assert store.touch(name, now=10.0 * renewal, lifetime=30.0, sequence=renewal)
        assert len(store._expiry_heap) == 100
        assert store.expire(519.0) == []
        assert store.expire(520.0) == sorted(names)
        assert store._expiry_heap == []

    def test_a_shorter_lease_is_queued_at_its_own_expiry(self):
        store = AdStore()
        store.insert("a", ClassAd({"Name": "a"}), now=0.0, lifetime=100.0)
        store.touch("a", now=1.0, lifetime=5.0, sequence=1)
        assert store.expire(5.0) == []
        assert store.expire(6.0) == ["a"]

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_touch_renews_in_place(self, operations):
        """A touch never replaces the stored ad object."""
        store, model, now = replay(operations)
        for name in model:
            before = store.get(name)
            assert store.touch(name, now=now, lifetime=10.0,
                               sequence=model[name][1] + 1) is True
            assert store.get(name) is before
            rec = store.record(name)
            assert rec.expires_at == now + 10.0
