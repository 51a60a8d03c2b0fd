"""Digit recognition end to end: train, generate, burn, classify.

The paper's MNIST use case at laptop scale: a small digit CNN is trained
on the synthetic digit set, an accelerator is generated and compiled for
it, Verilog is written to ``<tempdir>/deepburning_digit_rtl/`` (the
system temporary directory) and linted, and the fixed-point
accelerator classifies the held-out digits next to the float network.

Run: ``python examples/digit_recognition.py``
"""

import os
import tempfile

import numpy as np

import repro
from repro.experiments.config import scheme_budget
from repro.experiments.training import trained_mnist_small
from repro.nn.reference import ReferenceNetwork
from repro.rtl.emit import write_project
from repro.rtl.lint import lint_source
from repro.sim.quantized import QuantizedExecutor


def main() -> None:
    print("training the digit CNN on synthetic digits (cached)...")
    graph, weights, test_x, test_y = trained_mnist_small()

    artifacts = repro.build(graph, budget=scheme_budget("DB"),
                            weights=weights,
                            calibration_inputs=[test_x[0], test_x[1]])
    print(artifacts.design.summary())

    rtl_dir = os.path.join(tempfile.gettempdir(), "deepburning_digit_rtl")
    paths = write_project(artifacts.design, rtl_dir)
    sources = {os.path.basename(p): open(p).read()
               for p in paths if p.endswith(".v")}
    report = lint_source(sources)
    report.raise_on_error()
    print(f"wrote {len(paths)} RTL files to {rtl_dir} (lint clean)")

    float_net = ReferenceNetwork(graph, weights)
    quantized = QuantizedExecutor.from_program(artifacts.program, weights)

    float_correct = 0
    fixed_correct = 0
    for image, label in zip(test_x, test_y):
        if int(np.argmax(float_net.output(image))) == int(label):
            float_correct += 1
        if int(np.argmax(quantized.output(image))) == int(label):
            fixed_correct += 1
    total = len(test_x)
    print(f"\nheld-out digits: {total}")
    print(f"  float software NN accuracy:      {100 * float_correct / total:.1f}%")
    print(f"  fixed-point accelerator accuracy: {100 * fixed_correct / total:.1f}%")

    # Timing/energy of one classification on the simulated board.
    result = repro.simulate(artifacts, test_x[0], all_blobs=True)
    predicted = int(np.argmax(result.outputs["ip2"]))
    print(f"\none inference: {result.summary()}")
    print(f"accelerator predicts digit {predicted}, label is {int(test_y[0])}")


if __name__ == "__main__":
    main()
