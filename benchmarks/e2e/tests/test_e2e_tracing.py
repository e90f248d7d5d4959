"""Span self-time arithmetic and shim removal."""

import tracing


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Layered:
    """outer -> (inner, inner) with a scripted clock."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0          # outer's own work
        self.inner(2.0)
        self.clock.now += 0.5
        self.inner(3.0)
        return "done"

    def inner(self, cost):
        self.clock.now += cost


def test_self_time_is_duration_minus_children_and_layers_sum_to_the_total():
    clock = Clock()
    tracer = tracing.Tracer(clock=clock)
    obj = Layered(clock)
    tracer.shim(obj, "outer", "upper")
    tracer.shim(obj, "inner", "lower", keep=False)
    with tracer.span("op:test", "bench"):
        clock.now += 0.25
        assert obj.outer() == "done"
    table = tracing.layer_table(tracer)
    assert table["lower"] == {"calls": 2, "self_s": 5.0}
    assert table["upper"] == {"calls": 1, "self_s": 1.5}
    assert table["bench"] == {"calls": 1, "self_s": 0.25}
    assert sum(row["self_s"] for row in table.values()) == 6.75
    # leaf shims are counted but not kept; kept spans know their parent
    spans = {s["name"]: s for s in tracer.dump()}
    assert set(spans) == {"op:test", "upper:outer"}
    assert spans["upper:outer"]["parent"] == spans["op:test"]["id"]
    assert spans["op:test"]["end_s"] - spans["op:test"]["start_s"] == 6.75


def test_shims_are_removed_from_instances_and_classes():
    clock = Clock()
    tracer = tracing.Tracer(clock=clock)
    obj = Layered(clock)
    original_class_attr = Layered.__dict__["inner"]
    tracer.shim(obj, "outer", "upper")
    tracer.shim(Layered, "inner", "lower")
    assert "outer" in vars(obj) and Layered.__dict__["inner"] is not original_class_attr
    obj.outer()
    assert tracer.layers["lower"][0] == 2      # the class shim saw both calls
    tracer.remove_shims()
    assert tracer.shim_count == 0
    assert "outer" not in vars(obj)
    assert Layered.__dict__["inner"] is original_class_attr


def test_an_exception_still_closes_the_span():
    clock = Clock()
    tracer = tracing.Tracer(clock=clock)

    class Boom:
        def go(self):
            clock.now += 1.0
            raise KeyError("x")

    obj = Boom()
    tracer.shim(obj, "go", "layer")
    try:
        obj.go()
    except KeyError:
        pass
    assert tracer.layers["layer"] == [1, 1.0]
    assert not tracer._stack
