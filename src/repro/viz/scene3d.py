"""ParaView-flavoured 3D point-cloud rendering.

The paper's visualization agent calls a custom ParaView tool for spatial
tasks (Fig. 5: a target halo in red plus all halos within 20 Mpc).  This
module provides the offline equivalent: a 3D scene of point sets rendered
to SVG via an orthographic (or simple perspective) projection with
painter's-order depth sorting, plus a ``.vtp``-like XML export so scenes
could be inspected in real ParaView.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.viz.colormap import SURFACE, TEXT_PRIMARY, categorical_color
from repro.viz.svg import SVGDocument, escape


@dataclass
class _PointSet:
    points: np.ndarray        # (n, 3)
    color: str
    radius: float
    label: str | None
    radii: np.ndarray | None  # optional per-point radii


@dataclass
class Scene3D:
    """A collection of labelled 3D point sets."""

    width: float = 640
    height: float = 640
    title: str = ""
    _sets: list[_PointSet] = field(default_factory=list)

    def add_points(
        self,
        points: np.ndarray,
        color: str | None = None,
        radius: float = 2.0,
        label: str | None = None,
        radii: np.ndarray | None = None,
    ) -> None:
        """Add a point set; color defaults to the next categorical slot."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be (n, 3)")
        if color is None:
            color = categorical_color(len(self._sets))
        if radii is not None:
            radii = np.asarray(radii, dtype=np.float64)
            if len(radii) != len(points):
                raise ValueError("radii must match points")
        self._sets.append(_PointSet(points, color, radius, label, radii))

    # ------------------------------------------------------------------
    def _project(self, azimuth: float, elevation: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rotate all points into view space; returns (xy, depth, set_index)."""
        if not self._sets:
            return np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int)
        all_pts = np.vstack([s.points for s in self._sets])
        set_idx = np.repeat(
            np.arange(len(self._sets)), [len(s.points) for s in self._sets]
        )
        az, el = np.deg2rad(azimuth), np.deg2rad(elevation)
        rz = np.array(
            [[np.cos(az), -np.sin(az), 0], [np.sin(az), np.cos(az), 0], [0, 0, 1]]
        )
        rx = np.array(
            [[1, 0, 0], [0, np.cos(el), -np.sin(el)], [0, np.sin(el), np.cos(el)]]
        )
        view = all_pts @ rz.T @ rx.T
        return view[:, :2], view[:, 2], set_idx

    def to_svg(self, azimuth: float = 35.0, elevation: float = 25.0) -> str:
        """Render with painter's algorithm (far points first)."""
        doc = SVGDocument(self.width, self.height, background=SURFACE)
        xy, depth, set_idx = self._project(azimuth, elevation)
        if len(xy):
            lo = xy.min(axis=0)
            hi = xy.max(axis=0)
            span = np.maximum(hi - lo, 1e-9)
            pad = 40.0
            scale = min((self.width - 2 * pad) / span[0], (self.height - 2 * pad) / span[1])
            pix = (xy - lo) * scale + pad
            order = np.argsort(depth)  # far (small z) first
            for i in order:
                s = self._sets[set_idx[i]]
                within = i - int(np.sum([len(t.points) for t in self._sets[: set_idx[i]]]))
                r = float(s.radii[within]) if s.radii is not None else s.radius
                # mild depth cue: nearer points slightly larger and opaque
                dnorm = (depth[i] - depth.min()) / (np.ptp(depth) or 1.0)
                doc.circle(
                    float(pix[i, 0]),
                    float(self.height - pix[i, 1]),
                    r * (0.8 + 0.4 * dnorm),
                    fill=s.color,
                    fill_opacity=0.45 + 0.45 * dnorm,
                )
        if self.title:
            doc.text(self.width / 2, 20, self.title, size=13, anchor="middle", color=TEXT_PRIMARY, weight="bold")
        labeled = [s for s in self._sets if s.label]
        if len(labeled) >= 2:
            y = 40.0
            for s in labeled:
                doc.circle(18, y - 3, 5, fill=s.color)
                doc.text(30, y, str(s.label), size=10, color=TEXT_PRIMARY)
                y += 16
        return doc.render()

    def save_svg(self, path: str | Path, azimuth: float = 35.0, elevation: float = 25.0) -> int:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self.to_svg(azimuth, elevation).encode("utf-8")
        path.write_bytes(data)
        return len(data)

    # ------------------------------------------------------------------
    def save_vtp(self, path: str | Path) -> int:
        """Export a ParaView-compatible VTK PolyData XML (ASCII) file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if self._sets:
            all_pts = np.vstack([s.points for s in self._sets])
            set_idx = np.repeat(
                np.arange(len(self._sets)), [len(s.points) for s in self._sets]
            )
        else:
            all_pts = np.zeros((0, 3))
            set_idx = np.zeros(0, dtype=int)
        n = len(all_pts)
        coords = " ".join(f"{v:.6g}" for v in all_pts.ravel())
        groups = " ".join(str(int(g)) for g in set_idx)
        names = ";".join(escape(s.label or f"set{k}") for k, s in enumerate(self._sets))
        xml = f"""<?xml version="1.0"?>
<VTKFile type="PolyData" version="0.1" byte_order="LittleEndian">
 <!-- set names: {names} -->
 <PolyData>
  <Piece NumberOfPoints="{n}" NumberOfVerts="{n}">
   <Points>
    <DataArray type="Float64" NumberOfComponents="3" format="ascii">{coords}</DataArray>
   </Points>
   <PointData Scalars="set">
    <DataArray type="Int32" Name="set" format="ascii">{groups}</DataArray>
   </PointData>
   <Verts>
    <DataArray type="Int64" Name="connectivity" format="ascii">{' '.join(str(i) for i in range(n))}</DataArray>
    <DataArray type="Int64" Name="offsets" format="ascii">{' '.join(str(i + 1) for i in range(n))}</DataArray>
   </Verts>
  </Piece>
 </PolyData>
</VTKFile>
"""
        data = xml.encode("utf-8")
        path.write_bytes(data)
        return len(data)
