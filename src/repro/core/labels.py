"""Two-part label helpers for hyper-butterfly nodes.

A node of ``HB(m, n)`` is ``(h, b)`` where ``h`` is the ``m``-bit
*hypercube-part label* and ``b = (PI, CI)`` is the *butterfly-part label*
in the Cayley encoding of :mod:`repro.topologies.butterfly_cayley`.
The paper renders such a node as ``(x_{m-1} … x_0 ; t_{n-1} … t_0)``; these
helpers produce and parse an equivalent textual form, e.g. ``(101;bcA)``.
"""

from __future__ import annotations

from repro._bits import format_word
from repro.errors import InvalidLabelError, InvalidParameterError

__all__ = ["format_hb_node", "parse_hb_node", "hypercube_part", "butterfly_part"]


def hypercube_part(node: tuple) -> int:
    """The hypercube-part label ``h`` of an ``HB`` node ``(h, b)``."""
    return node[0]


def butterfly_part(node: tuple) -> tuple[int, int]:
    """The butterfly-part label ``b = (PI, CI)`` of an ``HB`` node."""
    return node[1]


def format_hb_node(node: tuple, m: int, n: int) -> str:
    """Render ``(h, (PI, CI))`` as ``(bits;symbols)``.

    The hypercube part prints most-significant-bit first (paper order
    ``x_{m-1} … x_0``); the butterfly part prints its symbol sequence with
    complemented symbols uppercased (see
    :meth:`repro.topologies.butterfly_cayley.CayleyButterfly.format_node`).
    """
    from repro.topologies.butterfly_cayley import CayleyButterfly

    h, b = node
    return f"({format_word(h, m)};{CayleyButterfly(n).format_node(b)})"


def parse_hb_node(text: str, m: int, n: int) -> tuple[int, tuple[int, int]]:
    """Parse the output of :func:`format_hb_node` back into a node label."""
    from repro.topologies.butterfly_cayley import CayleyButterfly

    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise InvalidLabelError(f"malformed HB label {text!r}: missing parentheses")
    body = stripped[1:-1]
    if ";" not in body:
        raise InvalidLabelError(f"malformed HB label {text!r}: missing ';' separator")
    h_text, b_text = body.split(";", 1)
    if len(h_text) != m or any(ch not in "01" for ch in h_text):
        raise InvalidLabelError(
            f"hypercube part {h_text!r} is not an {m}-bit binary word"
        )
    h = int(h_text, 2) if m > 0 else 0
    try:
        b = CayleyButterfly(n).node_from_string(b_text)
    except InvalidParameterError as exc:
        raise InvalidLabelError(str(exc)) from exc
    return (h, b)
