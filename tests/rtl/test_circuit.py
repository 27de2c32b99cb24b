"""Unit tests for the netlist IR: construction, validation, queries."""

import pytest

from repro.errors import CircuitError
from repro.rtl import Circuit, CircuitBuilder, OpKind


class TestNetManagement:
    def test_new_net_auto_name(self):
        c = Circuit()
        n1 = c.new_net(4)
        n2 = c.new_net(4)
        assert n1.name != n2.name

    def test_duplicate_name_rejected(self):
        c = Circuit()
        c.new_net(4, "x")
        with pytest.raises(CircuitError):
            c.new_net(4, "x")

    def test_zero_width_rejected(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.new_net(0)

    def test_lookup(self):
        c = Circuit()
        net = c.new_net(8, "bus")
        assert c.net("bus") is net
        assert c.has_net("bus")
        assert not c.has_net("nope")
        with pytest.raises(CircuitError):
            c.net("nope")

    def test_max_value(self):
        c = Circuit()
        assert c.new_net(3).max_value == 7
        assert c.new_net(1).is_bool


class TestNodeConstruction:
    def test_const_range_check(self):
        c = Circuit()
        c.add_const(7, 3)
        with pytest.raises(CircuitError):
            c.add_const(8, 3)
        with pytest.raises(CircuitError):
            c.add_const(-1, 3)

    def test_boolean_gate_width_check(self):
        b = CircuitBuilder()
        w = b.input("w", 4)
        x = b.input("x", 1)
        with pytest.raises(CircuitError):
            b.and_(w, x)

    def test_and_variadic(self):
        b = CircuitBuilder()
        x = b.input("x")
        y = b.input("y")
        z = b.input("z")
        out = b.and_(x, y, z)
        assert out.driver.kind is OpKind.AND
        assert len(out.driver.operands) == 3

    def test_and_needs_two_operands(self):
        b = CircuitBuilder()
        x = b.input("x")
        with pytest.raises(CircuitError):
            b.and_(x)

    def test_add_width_mismatch(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        c = b.input("c", 5)
        with pytest.raises(CircuitError):
            b.add(a, c)

    def test_mux_checks(self):
        b = CircuitBuilder()
        sel = b.input("sel", 1)
        wide_sel = b.input("ws", 2)
        a = b.input("a", 4)
        c = b.input("c", 4)
        d = b.input("d", 5)
        out = b.mux(sel, a, c)
        assert out.width == 4
        with pytest.raises(CircuitError):
            b.mux(wide_sel, a, c)
        with pytest.raises(CircuitError):
            b.mux(sel, a, d)

    def test_concat_width(self):
        b = CircuitBuilder()
        hi = b.input("hi", 3)
        lo = b.input("lo", 2)
        assert b.concat(hi, lo).width == 5

    def test_extract_widths_and_bounds(self):
        b = CircuitBuilder()
        a = b.input("a", 8)
        assert b.extract(a, 5, 2).width == 4
        with pytest.raises(CircuitError):
            b.extract(a, 8, 0)
        with pytest.raises(CircuitError):
            b.extract(a, 1, 3)

    def test_zext(self):
        b = CircuitBuilder()
        a = b.input("a", 3)
        assert b.zext(a, 8).width == 8
        with pytest.raises(CircuitError):
            b.zext(a, 3)

    def test_mulc_requires_factor(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        with pytest.raises(CircuitError):
            b.circuit.add_node(OpKind.MULC, (a,))
        assert b.mul_const(a, 3).width == 4

    def test_shift_requires_amount(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        with pytest.raises(CircuitError):
            b.circuit.add_node(OpKind.SHL, (a,))

    def test_predicate_output_is_bool(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        c = b.input("c", 4)
        assert b.lt(a, c).is_bool

    def test_coerce_int_operand(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        out = b.eq(a, 3)
        const_net = out.driver.operands[1]
        assert const_net.driver.kind is OpKind.CONST
        assert const_net.driver.const_value == 3
        assert const_net.width == 4

    def test_coerce_needs_one_net(self):
        b = CircuitBuilder()
        with pytest.raises(CircuitError):
            b.eq(3, 4)


class TestRegisters:
    def test_register_lifecycle(self):
        b = CircuitBuilder()
        r = b.register("r", 4, init=5)
        nxt = b.inc(r)
        b.next_state(r, nxt)
        c = b.build()
        assert not c.is_combinational
        assert c.registers[0].init_value == 5

    def test_unconnected_register_rejected_by_validate(self):
        b = CircuitBuilder()
        b.register("r", 4)
        with pytest.raises(CircuitError):
            b.build()

    def test_validate_checks_what_was_appended_since(self):
        # Nets and outputs added after a passing validate are checked by
        # the next call; a foreign output is a CircuitError even when its
        # index is past the circuit's nets.
        b = CircuitBuilder()
        a = b.input("a", 4)
        b.output("o", b.inc(a))
        circuit = b.build()
        circuit.validate()
        circuit.new_net(4, "dangling")
        with pytest.raises(CircuitError, match="dangling"):
            circuit.validate()

        other = CircuitBuilder()
        foreign = [other.input(f"x{i}", 4) for i in range(8)]
        for net in (foreign[0], foreign[-1]):  # index inside, past the nets
            b = CircuitBuilder()
            b.output("o", b.inc(b.input("a", 4)))
            circuit = b.build()
            circuit.validate()
            circuit.mark_output("stray", net)
            with pytest.raises(CircuitError, match="foreign"):
                circuit.validate()

    def test_double_connect_rejected(self):
        b = CircuitBuilder()
        r = b.register("r", 4)
        b.next_state(r, b.const(1, 4))
        with pytest.raises(CircuitError):
            b.next_state(r, b.const(2, 4))

    def test_width_mismatch_rejected(self):
        b = CircuitBuilder()
        r = b.register("r", 4)
        with pytest.raises(CircuitError):
            b.next_state(r, b.const(0, 5))

    def test_init_range_check(self):
        b = CircuitBuilder()
        with pytest.raises(CircuitError):
            b.register("r", 3, init=8)


class TestTopologyAndStats:
    def test_topological_order(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        c = b.input("c", 4)
        s = b.add(a, c)
        p = b.lt(s, c)
        out = b.mux(p, a, s)
        b.output("out", out)
        circuit = b.build()
        order = circuit.topological_nodes()
        positions = {node.output.name: i for i, node in enumerate(order)}
        assert positions["a"] < positions[s.name]
        assert positions[s.name] < positions[p.name]
        assert positions[p.name] < positions[out.name]

    def test_appended_driverless_operand_or_cycle_still_raises(self):
        """A memoized order grows only over well-formed appends."""
        c = Circuit()
        c.add_input("a", 1)
        c.topological_nodes()
        c.add_node(OpKind.NOT, [c.new_net(1, "floating")])
        with pytest.raises(CircuitError, match="has no driver"):
            c.topological_nodes()

        c = Circuit()
        a = c.add_input("a", 1)
        c.topological_nodes()
        first = c.add_node(OpKind.NOT, [a])
        second = c.add_node(OpKind.NOT, [first])
        first.driver.operands = (second,)
        with pytest.raises(CircuitError, match="combinational cycle"):
            c.topological_nodes()

    def test_register_feedback_is_not_a_cycle(self):
        b = CircuitBuilder()
        r = b.register("r", 4)
        b.next_state(r, b.inc(r))
        b.build()  # should not raise

    def test_stats_census(self):
        b = CircuitBuilder()
        a = b.input("a", 4)
        c = b.input("c", 4)
        s = b.add(a, c)          # arith
        p = b.lt(s, c)           # arith + predicate
        q = b.eq(a, c)           # arith + predicate
        g = b.and_(p, q)         # bool
        m = b.mux(g, a, s)       # arith
        b.output("out", m)
        stats = b.build().stats()
        assert stats.arith_ops == 4
        assert stats.bool_ops == 1
        assert stats.predicates == 2
        assert stats.inputs == 2
        assert stats.total_ops == 5

    def test_duplicate_output_rejected(self):
        b = CircuitBuilder()
        a = b.input("a", 1)
        b.output("o", a)
        with pytest.raises(CircuitError):
            b.output("o", a)


class TestSelectHelper:
    def test_select_builds_mux_chain(self):
        b = CircuitBuilder()
        state = b.input("state", 2)
        out = b.select(state, [(0, 5), (1, 6)], default=7, width=4)
        assert out.driver.kind is OpKind.MUX
        b.output("o", out)
        b.build()

    def test_select_needs_width_for_all_int_branches(self):
        b = CircuitBuilder()
        state = b.input("state", 2)
        with pytest.raises(CircuitError):
            b.select(state, [(0, 5)], default=7)

    def test_select_infers_width_from_net_branch(self):
        b = CircuitBuilder()
        state = b.input("state", 2)
        data = b.input("data", 4)
        out = b.select(state, [(0, data)], default=9)
        assert out.width == 4
