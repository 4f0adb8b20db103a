"""Graph text formats.

graph6: the headerless 6-bit encoding, N(n) byte followed by the upper
triangle of the adjacency matrix column-major, six bits per printable
character (offset 63).  Orders above 62 are rejected.

edge-list: first line "order edge-count", then one "u v" line per edge,
0-based, whitespace-separated, newline-terminated.  Lines that are blank
or start with '#' are ignored, so generator output with a matching
comment line round-trips.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import Graph

FORMATS = ("graph6", "edge-list")

_G6_MAX_ORDER = 62


def to_graph6(g: Graph) -> str:
    if g.order > _G6_MAX_ORDER:
        raise ValueError(f"graph6 output supports order <= {_G6_MAX_ORDER}")
    chars = [chr(63 + g.order)]
    acc = 0
    nbits = 0
    for j in range(1, g.order):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        chars.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chars)


def parse_graph6(text: str, base_offset: int = 0) -> Graph:
    line = text.rstrip("\r\n")
    if not line:
        raise ParseError("empty graph6 input", base_offset)
    first = ord(line[0])
    if first == 126:
        raise ParseError("graph6 orders above 62 are unsupported", base_offset)
    if not 63 <= first <= 125:
        raise ParseError(f"invalid graph6 byte {first}", base_offset)
    n = first - 63
    need = (n * (n - 1) // 2 + 5) // 6
    if len(line) - 1 != need:
        raise ParseError(
            f"graph6 body for order {n} needs {need} bytes, got {len(line) - 1}",
            base_offset + min(len(line), need + 1),
        )
    bits = []
    for k, ch in enumerate(line[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"invalid graph6 byte {ord(ch)}", base_offset + k)
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    for extra in range(pos, len(bits)):
        if bits[extra]:
            raise ParseError(
                "non-zero padding bits in graph6 body", base_offset + 1 + extra // 6
            )
    return Graph(n, tuple(rows))


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.order} {g.edge_count()}"]
    lines.extend(f"{e.u} {e.v}" for e in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    # (content offset, line_number, content) for non-blank, non-comment lines
    entries = []
    offset = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            indent = len(raw) - len(raw.lstrip())
            entries.append((offset + indent, lineno, stripped))
        offset += len(raw) + 1
    if not entries:
        raise ParseError("empty edge-list input", 0)

    head_off, head_no, head = entries[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError(f"malformed header at line {head_no}", head_off)
    try:
        order, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"malformed header at line {head_no}", head_off) from None
    if order < 0 or count < 0:
        raise ParseError(f"malformed header at line {head_no}", head_off)

    body = entries[1:]
    if len(body) != count:
        raise ParseError(
            f"header declares {count} edges, found {len(body)} edge lines",
            head_off,
        )
    rows = [0] * order
    for off, lineno, content in body:
        fields = content.split()
        if len(fields) != 2:
            raise ParseError(f"malformed edge at line {lineno}", off)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"malformed edge at line {lineno}", off) from None
        if a == b:
            raise ParseError(f"loop at line {lineno}", off)
        if not (0 <= a < order and 0 <= b < order):
            raise ParseError(f"vertex out of range at line {lineno}", off)
        u, v = (a, b) if a < b else (b, a)
        if (rows[u] >> v) & 1:
            raise ParseError(f"duplicate edge at line {lineno}", off)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows))


def load_graph(text: str, format: str) -> Graph:
    """Parse exactly one graph in the named format ('graph6' or 'edge-list')."""
    if format == "graph6":
        entries = list(_content_lines(text))
        if not entries:
            raise ParseError("empty graph6 input", 0)
        if len(entries) > 1:
            lineno, (off, _line) = entries[1]
            raise ParseError(f"graph6 input holds a second graph at line {lineno}", off)
        _lineno, (off, line) = entries[0]
        return parse_graph6(line, base_offset=off)
    if format == "edge-list":
        return parse_edge_list(text)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


def serialize_graph(g: Graph, format: str) -> str:
    if format == "graph6":
        return to_graph6(g) + "\n"
    if format == "edge-list":
        return to_edge_list(g)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


_G6_HEADER = ">>graph6<<"


def _content_lines(text: str):
    offset = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        extra = len(raw) - len(raw.lstrip())
        if stripped.startswith(_G6_HEADER):
            stripped = stripped[len(_G6_HEADER):]
            extra += len(_G6_HEADER)
        if stripped and not stripped.startswith("#"):
            yield lineno, (offset + extra, stripped)
        offset += len(raw) + 1


def read_graph6_collection(text: str) -> list[Graph]:
    """Parse a multi-line graph6 corpus (one graph per line)."""
    out = []
    for _lineno, (off, line) in _content_lines(text):
        out.append(parse_graph6(line, base_offset=off))
    return out
