"""One Verilog module per distinct configuration.

Two components whose templates render different bodies must get
different module names, and the emitter refuses a project in which one
module name would carry two bodies.
"""

import pytest

from repro.components import ActivationUnit, AddressGenerationUnit, AGURole
from repro.devices import Z7020, budget_fraction
from repro.errors import RTLError
from repro.frontend import load
from repro.nngen import NNGen
from repro.rtl import emit_project
from repro.rtl.templates import render_component

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 16 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 4 } }
"""


class TestAGUNames:
    def test_same_field_count_different_fields(self):
        strided = AddressGenerationUnit("a", AGURole.DATA, n_patterns=2,
                                        fields=("start_address", "stride"))
        counted = AddressGenerationUnit("b", AGURole.DATA, n_patterns=2,
                                        fields=("start_address", "x_length"))
        assert len(strided.fields) == len(counted.fields)
        assert strided.module_name != counted.module_name
        assert render_component(strided) != render_component(counted)

    def test_field_order_does_not_change_the_module(self):
        a = AddressGenerationUnit("a", AGURole.MAIN, n_patterns=2,
                                  fields=("start_address", "x_length"))
        b = AddressGenerationUnit("b", AGURole.WEIGHT, n_patterns=2,
                                  fields=("x_length", "start_address"))
        assert a.module_name == b.module_name
        assert render_component(a) == render_component(b)

    def test_rom_depth_is_in_the_name(self):
        a = AddressGenerationUnit("a", AGURole.MAIN, n_patterns=2, rows=4)
        b = AddressGenerationUnit("b", AGURole.MAIN, n_patterns=2, rows=9)
        assert a.module_name != b.module_name


class TestActivationNames:
    def test_different_functions_same_count(self):
        sigmoid = ActivationUnit("a", lanes=4, functions=("relu", "sigmoid"))
        tanh = ActivationUnit("b", lanes=4, functions=("relu", "tanh"))
        assert sigmoid.module_name != tanh.module_name
        assert render_component(sigmoid) != render_component(tanh)

    def test_function_order_is_in_the_name(self):
        a = ActivationUnit("a", lanes=4, functions=("relu", "sigmoid"))
        b = ActivationUnit("b", lanes=4, functions=("sigmoid", "relu"))
        assert a.module_name != b.module_name
        assert render_component(a) != render_component(b)


class _PinnedNameAGU(AddressGenerationUnit):
    """An AGU whose module name ignores its configuration."""

    pinned = ""

    @property
    def module_name(self) -> str:
        return self.pinned


class TestEmitRefusesNameClash:
    @pytest.fixture
    def design(self):
        return NNGen().generate(load(MLP_TEXT, format="prototxt"),
                                budget_fraction(Z7020, 0.3))

    def test_two_bodies_one_name_raises(self, design):
        main = design.components["agu_main"]
        clash = _PinnedNameAGU("agu_data", AGURole.DATA,
                               n_patterns=main.n_patterns,
                               fields=("start_address",), rows=main.rows)
        clash.pinned = main.module_name
        design.components["agu_data"] = clash
        with pytest.raises(RTLError, match="two different bodies"):
            emit_project(design)
