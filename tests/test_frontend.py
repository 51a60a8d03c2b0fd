"""The unified multi-format frontend: registry, load(), CLI resolver.

``repro.frontend.load`` is the single graph-ingest entry point; these
tests pin the format registry, auto-detection over paths and raw text,
the ONNX-style backend's error reporting, and the shared CLI graph
resolver.
"""

import json

import pytest

from repro.errors import ParseError, UnsupportedLayerError
from repro.frontend import (
    detect_format,
    get_frontend,
    load,
    register_frontend,
    registered_formats,
)
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, supported_kind_names

SCRIPT = """
name: "tiny"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 4 } }
"""

DOC = {
    "ir_version": 1,
    "graph": {
        "name": "tiny_json",
        "input": [{"name": "data", "shape": [8]}],
        "node": [
            {"name": "ip1", "op_type": "Gemm", "input": ["data"],
             "output": ["ip1"], "attributes": {"num_output": 4}},
        ],
    },
}


class TestRegistry:
    def test_both_backends_registered(self):
        assert registered_formats() == ("onnx", "prototxt")

    def test_get_frontend_unknown_lists_options(self):
        with pytest.raises(ParseError, match="onnx.*prototxt"):
            get_frontend("caffe2")

    def test_custom_backend_registers_and_loads(self):
        class TsvFrontend:
            name = "tsv-test"
            extensions = (".tsv-test",)

            def sniff(self, text):
                return False

            def load_text(self, text, name=""):
                return load(SCRIPT, format="prototxt")

        register_frontend(TsvFrontend())
        try:
            assert "tsv-test" in registered_formats()
            graph = load("anything\ngoes", format="tsv-test")
            assert graph.name == "tiny"
        finally:
            from repro.frontend import registry
            registry._REGISTRY.pop("tsv-test", None)


class TestDetectFormat:
    def test_script_text_is_prototxt(self):
        assert detect_format(SCRIPT) == "prototxt"

    def test_json_text_is_onnx(self):
        assert detect_format(json.dumps(DOC)) == "onnx"

    def test_extension_wins_for_paths(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(DOC))
        assert detect_format(str(path)) == "onnx"
        script = tmp_path / "net.prototxt"
        script.write_text(SCRIPT)
        assert detect_format(str(script)) == "prototxt"

    def test_unknown_extension_sniffs_content(self, tmp_path):
        path = tmp_path / "net.model"
        path.write_text(json.dumps(DOC))
        assert detect_format(str(path)) == "onnx"


class TestLoad:
    def test_graph_passthrough(self):
        graph = load(SCRIPT)
        assert load(graph) is graph

    def test_text_auto_detection(self):
        assert load(SCRIPT).name == "tiny"
        assert load(json.dumps(DOC)).name == "tiny_json"

    def test_mapping_document(self):
        graph = load(DOC)
        assert isinstance(graph, NetworkGraph)
        assert [spec.kind for spec in graph.layers] == [
            LayerKind.DATA, LayerKind.INNER_PRODUCT]

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(DOC))
        assert load(str(path)).name == "tiny_json"

    def test_format_override(self):
        with pytest.raises(ParseError):
            load(SCRIPT, format="onnx")

    def test_fingerprints_agree_across_formats(self):
        from repro.frontend.onnx import dumps
        graph = load(SCRIPT)
        assert load(dumps(graph)).fingerprint() == graph.fingerprint()


class TestParseErrors:
    def test_unknown_kind_names_layer_and_lists_options(self):
        bad = SCRIPT.replace("INNER_PRODUCT", "TRANSFORMER")
        with pytest.raises(UnsupportedLayerError) as excinfo:
            load(bad)
        message = str(excinfo.value)
        assert "TRANSFORMER" in message
        assert "ip1" in message
        assert "supported types" in message

    def test_supported_kind_names_cover_new_kinds(self):
        names = supported_kind_names()
        assert "DEPTHWISE_CONVOLUTION" in names
        assert "ELTWISE" in names

    def test_depthwise_rejects_explicit_group(self):
        text = """
name: "bad"
layers { name: "data" type: DATA top: "data" param { dim: 4 dim: 8 dim: 8 } }
layers { name: "dw" type: DWCONV bottom: "data" top: "dw" param { num_output: 4 kernel_size: 3 group: 2 } }
"""
        with pytest.raises(ParseError, match="group"):
            load(text)

    def test_grouped_conv_output_must_divide_prototxt(self):
        text = """
name: "bad"
layers { name: "data" type: DATA top: "data" param { dim: 4 dim: 8 dim: 8 } }
layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv" param { num_output: 3 kernel_size: 3 group: 2 } }
"""
        with pytest.raises(ParseError, match="'conv'.*divisible by group 2"):
            load(text)

    def test_grouped_conv_output_must_divide_onnx(self):
        doc = {"graph": {
            "name": "bad",
            "input": [{"name": "data", "shape": [4, 8, 8]}],
            "node": [{"name": "conv", "op_type": "Conv", "input": ["data"],
                      "output": ["conv"],
                      "attributes": {"num_output": 3, "kernel_size": 3,
                                     "group": 2}}],
        }}
        with pytest.raises(ParseError, match="'conv'.*divisible by group 2"):
            load(doc)

    def test_invalid_json_reports_parse_error(self):
        with pytest.raises(ParseError, match="invalid onnx json"):
            load("{not json", format="onnx")


class TestCliResolver:
    def test_model_and_graph_conflict(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "net.prototxt"
        path.write_text(SCRIPT)
        code = main(["verify", "--model", "mnist", "--graph", str(path)])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_neither_source_errors(self, capsys):
        from repro.cli import main

        code = main(["verify"])
        assert code == 1
        assert "--model or --graph" in capsys.readouterr().err

    def test_graph_flag_loads_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "net.json"
        path.write_text(json.dumps(DOC))
        code = main(["verify", "--graph", str(path), "--fraction", "0.2"])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out
