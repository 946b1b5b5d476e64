"""Minimal SVG document builder.

Emits clean, hand-inspectable SVG 1.1.  All geometry is computed by the
caller (:mod:`repro.viz.figure`); this module only knows elements,
attributes and escaping.
"""

from __future__ import annotations

from pathlib import Path


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities, byte for byte what
    ``xml.sax.saxutils.escape`` emits (that module imports
    ``urllib.request`` and with it the http/ssl stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """An attribute value escaped and quoted as ``saxutils.quoteattr`` does."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.2f}".rstrip("0").rstrip(".")
    return str(v)


class SVGDocument:
    """Accumulates SVG elements and serializes them."""

    def __init__(self, width: float, height: float, background: str | None = None):
        self.width = width
        self.height = height
        self._parts: list[str] = []
        if background:
            self.rect(0, 0, width, height, fill=background)

    # ------------------------------------------------------------------
    def _attrs(self, attrs: dict[str, object]) -> str:
        rendered = []
        for key, value in attrs.items():
            if value is None:
                continue
            name = key.replace("_", "-")
            rendered.append(f"{name}={quoteattr(_fmt(value))}")
        return " ".join(rendered)

    def element(self, tag: str, **attrs: object) -> None:
        self._parts.append(f"<{tag} {self._attrs(attrs)}/>")

    def rect(self, x: float, y: float, w: float, h: float, **attrs: object) -> None:
        self.element("rect", x=x, y=y, width=w, height=h, **attrs)

    def line(self, x1: float, y1: float, x2: float, y2: float, **attrs: object) -> None:
        self.element("line", x1=x1, y1=y1, x2=x2, y2=y2, **attrs)

    def circle(self, cx: float, cy: float, r: float, **attrs: object) -> None:
        self.element("circle", cx=cx, cy=cy, r=r, **attrs)

    def polyline(self, points: list[tuple[float, float]], **attrs: object) -> None:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.element("polyline", points=pts, fill="none", **attrs)

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: float = 11,
        anchor: str = "start",
        color: str = "#0b0b0b",
        rotate: float | None = None,
        weight: str | None = None,
    ) -> None:
        attrs: dict[str, object] = {
            "x": x,
            "y": y,
            "font_size": size,
            "text_anchor": anchor,
            "fill": color,
            "font_family": "Helvetica, Arial, sans-serif",
        }
        if weight:
            attrs["font_weight"] = weight
        if rotate is not None:
            attrs["transform"] = f"rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"
        self._parts.append(f"<text {self._attrs(attrs)}>{escape(content)}</text>")

    def group_open(self, **attrs: object) -> None:
        self._parts.append(f"<g {self._attrs(attrs)}>")

    def group_close(self) -> None:
        self._parts.append("</g>")

    # ------------------------------------------------------------------
    def render(self) -> str:
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
            f"{body}\n</svg>\n"
        )

    def save(self, path: str | Path) -> int:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self.render().encode("utf-8")
        path.write_bytes(data)
        return len(data)
