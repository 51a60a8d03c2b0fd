"""Model description frontend.

Graph ingest goes through :func:`load`, which dispatches on format to a
registered :class:`~repro.frontend.registry.Frontend` backend.  Two
backends ship in-tree: the Caffe-compatible descriptive script
(``*.prototxt``, Fig. 4 of the paper, extended with ``connect { }``
blocks for recurrent wiring) and an ONNX-style JSON graph format
(:mod:`repro.frontend.onnx`).  Both lower into the same typed layer list
(:mod:`repro.frontend.layers`) and network graph IR
(:mod:`repro.frontend.graph`), which :func:`resolve` lowers once into
the :class:`ResolvedGraph` every later stage reads.
"""

from repro.frontend.prototxt import parse_prototxt, parse_prototxt_file, Message
from repro.frontend.layers import (
    ConnectionSpec,
    LayerKind,
    LayerSpec,
    layer_from_message,
    supported_kind_names,
)
from repro.frontend.graph import (
    NetworkGraph,
    build_graph,
    build_graph_from_layers,
)
from repro.frontend.shapes import TensorShape, conv_groups, infer_shapes
from repro.frontend.resolver import ResolvedGraph, resolve
from repro.frontend.registry import (
    AUTO,
    Frontend,
    GraphSource,
    detect_format,
    get_frontend,
    load,
    register_frontend,
    registered_formats,
)
from repro.frontend import onnx as onnx  # registers the onnx backend

__all__ = [
    "parse_prototxt",
    "parse_prototxt_file",
    "Message",
    "LayerKind",
    "LayerSpec",
    "ConnectionSpec",
    "layer_from_message",
    "supported_kind_names",
    "NetworkGraph",
    "build_graph",
    "build_graph_from_layers",
    "TensorShape",
    "conv_groups",
    "infer_shapes",
    "ResolvedGraph",
    "resolve",
    "AUTO",
    "Frontend",
    "GraphSource",
    "detect_format",
    "get_frontend",
    "load",
    "register_frontend",
    "registered_formats",
    "onnx",
]
