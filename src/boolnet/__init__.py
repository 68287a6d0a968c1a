"""Deep Boolean gate networks: training with a candidate-set learnable
interconnect, hardening to pure logic circuits, and compression passes."""

__version__ = "0.1.0"
