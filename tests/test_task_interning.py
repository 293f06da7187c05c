"""Interned dependences: equivalence against per-access construction.

``Task.make`` hands out one shared, frozen ``Dependence`` per (region,
kind) with its packed kernel row computed once.  The oracle below is the
construction it replaced — a fresh ``Dependence(kind, Region.of(spec))``
per declared access, encoded by walking the accesses one at a time — and
every shipped builder must produce the same accesses through both.
"""

import copy
import math
import pickle
from array import array

import pytest

from repro.apps import dag_workloads as dw
from repro.apps import kernels, parsec
from repro.core import task as task_mod
from repro.core.task import (
    DepKind,
    Dependence,
    Region,
    Task,
    _encode_deps,
    clear_region_intern,
)


# ----------------------------------------------------------------------
# the oracle: per-access construction and encoding
# ----------------------------------------------------------------------
_REF_KIND_BIT = {
    DepKind.IN: 0,
    DepKind.CONCURRENT: 1,
    DepKind.OUT: 2,
    DepKind.INOUT: 2,
    DepKind.COMMUTATIVE: 2,
}


def reference_make(
    cls,
    label="task",
    cpu_cycles=1e6,
    mem_seconds=0.0,
    in_=(),
    out=(),
    inout=(),
    concurrent=(),
    commutative=(),
    fn=None,
    args=(),
    kwargs=None,
    priority=0,
):
    """Task.make before interning: one fresh Dependence per access."""
    deps = []
    for kind, specs in (
        (DepKind.IN, in_),
        (DepKind.OUT, out),
        (DepKind.INOUT, inout),
        (DepKind.CONCURRENT, concurrent),
        (DepKind.COMMUTATIVE, commutative),
    ):
        for spec in specs:
            deps.append(Dependence(kind, Region.of(spec)))
    return cls(
        label=label,
        cpu_cycles=cpu_cycles,
        mem_seconds=mem_seconds,
        deps=deps,
        fn=fn,
        args=args,
        kwargs=kwargs if kwargs is not None else {},
        priority=priority,
    )


def reference_encode(deps):
    """The per-access encoder the row gather replaced."""
    enc = array("i")
    for d in deps:
        region = d.region
        iid = region._iid
        if iid < 0:
            iid = task_mod._register_region(region)
        enc.append((iid << 2) | _REF_KIND_BIT[d.kind])
    return enc


class _CollectingRuntime:
    """Stands in for a Runtime in builders that submit as they go."""

    def __init__(self):
        self.tasks = []

    def submit(self, task):
        self.tasks.append(task)
        return task


def _parsec(builder, app):
    def build():
        rt = _CollectingRuntime()
        builder(rt, parsec.PARSEC_APPS[app], 4)
        return rt.tasks

    return build


BUILDERS = {
    **{
        f"{name}-s{scale}": (
            lambda name=name, scale=scale: dw.make_workload(
                name, scale=scale, seed=3
            )
        )
        for name in sorted(dw.WORKLOADS)
        for scale in (1, 2)
    },
    "stream_window": lambda: [
        t
        for w in range(3)
        for t in dw.stream_window(w, n_buffers=8, n_tasks=40, fanin=3, seed=2)
    ],
    "kernels.chain": lambda: kernels.chain(6),
    "kernels.fork_join": lambda: kernels.fork_join(4, depth=3),
    "kernels.reduction_tree": lambda: kernels.reduction_tree(9),
    "kernels.wavefront": lambda: kernels.wavefront(4, 5),
    "kernels.pipeline": lambda: kernels.pipeline(3, 4),
    "kernels.critical_chain": lambda: kernels.critical_chain_with_fillers(
        4, 6, jitter=0.3, seed=2
    ),
    "parsec.pthreads": _parsec(parsec.build_pthreads, "bodytrack"),
    "parsec.ompss": _parsec(parsec.build_ompss, "facesim"),
}


def _accesses(tasks):
    return [
        (
            t.label,
            t.cpu_cycles,
            t.mem_seconds,
            t.priority,
            [(d.kind, d.region) for d in t.deps],
        )
        for t in tasks
    ]


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestBuildersMatchOracle:
    def test_same_kind_region_sequences(self, name, monkeypatch):
        interned = BUILDERS[name]()
        monkeypatch.setattr(Task, "make", classmethod(reference_make))
        reference = BUILDERS[name]()
        assert _accesses(interned) == _accesses(reference)

    def test_encoding_is_a_fresh_encode(self, name):
        for t in BUILDERS[name]():
            enc = t._dep_enc.tobytes()
            assert enc == _encode_deps(list(t.deps)).tobytes()
            assert enc == reference_encode(t.deps).tobytes()

    def test_one_shared_dependence_per_region_and_kind(self, name):
        shared = {}
        for t in BUILDERS[name]():
            for d in t.deps:
                assert shared.setdefault((d.kind, d.region), d) is d
                assert d.region is Region.interned(d.region)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestInterning:
    def test_repeat_access_reuses_the_dependence(self):
        a = Task.make("a", in_=["itn.x"], out=[("itn.y", 0, 4)])
        b = Task.make("b", in_=[Region.interned("itn.x")], out=[("itn.y", 0, 4)])
        assert a.deps[0] is b.deps[0] and a.deps[1] is b.deps[1]
        c = Task.make("c", inout=["itn.x"])
        assert c.deps[0] is not a.deps[0]  # same region, other kind
        assert c.deps[0].region is a.deps[0].region

    def test_region_instance_used_as_given(self):
        plain = Region("itn.given", 0, 8)
        t = Task.make("t", in_=[plain])
        assert t.deps[0].region is plain
        assert Task.make("u", in_=[plain]).deps[0] is t.deps[0]

    def test_bad_spec_rejected(self):
        with pytest.raises(TypeError):
            Task.make("t", in_=[42])

    def test_row_not_in_eq_hash_or_repr(self):
        (interned,) = Task.make("t", out=["itn.eq"]).deps
        fresh = Dependence(DepKind.OUT, Region("itn.eq"))
        assert fresh._row == -1 and interned._row >= 0
        assert fresh == interned and hash(fresh) == hash(interned)
        assert repr(fresh) == repr(interned)

    def test_direct_construction_encodes_too(self):
        dep = Dependence(DepKind.INOUT, Region("itn.direct"))
        t = Task("t", deps=[dep])
        assert t._dep_enc.tobytes() == reference_encode([dep]).tobytes()
        assert dep._row == t._dep_enc[0]

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_roundtrip_drops_cached_rows_and_reencodes(self, roundtrip):
        t = Task.make("t", in_=["itn.p"], inout=[("itn.q", 0, 2)])
        clone = roundtrip(t)
        assert clone._dep_enc is None
        assert [d._row for d in clone.deps] == [-1, -1]
        assert [d.region._iid for d in clone.deps] == [-1, -1]
        assert clone.deps == t.deps
        enc = clone._refresh_dep_enc()
        assert enc.tobytes() == reference_encode(clone.deps).tobytes()
        assert [d._row for d in clone.deps] == list(enc)
        assert list(enc) != list(t._dep_enc)  # fresh regions, fresh ids

    def test_clear_region_intern_rebinds_to_new_canonical_regions(self):
        old = dw.make_workload("cholesky", scale=1)
        clear_region_intern()
        new = dw.make_workload("cholesky", scale=1)
        assert _accesses(old) == _accesses(new)
        for t_old, t_new in zip(old, new):
            for d_old, d_new in zip(t_old.deps, t_new.deps):
                assert d_new is not d_old
                assert d_new.region is not d_old.region
                assert d_new.region is Region.interned(d_new.region)
                assert d_new._row != d_old._row
        assert all(
            t._dep_enc.tobytes() == reference_encode(t.deps).tobytes()
            for t in old + new
        )

    def test_mutated_deps_detected_and_reencoded(self):
        t = Task.make("t", in_=["itn.m"])
        t.deps.append(Dependence(DepKind.OUT, Region("itn.n")))
        assert len(t._dep_enc) != len(t.deps)
        enc = t._refresh_dep_enc()
        assert enc.tobytes() == reference_encode(t.deps).tobytes()


class TestNonFiniteCosts:
    @pytest.mark.parametrize("field", ["cpu_cycles", "mem_seconds"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_make_rejects(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            Task.make("t", **{field: value})

    @pytest.mark.parametrize("field", ["cpu_cycles", "mem_seconds"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_constructor_rejects(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            Task("t", **{field: value})

    def test_zero_and_finite_costs_accepted(self):
        t = Task.make("t", cpu_cycles=0.0, mem_seconds=1e300)
        assert t.mem_seconds == 1e300
