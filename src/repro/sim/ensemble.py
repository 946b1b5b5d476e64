"""Ensemble generation and the on-disk run × timestep hierarchy.

Directory layout (mirrors the HACC data portal structure the paper's
data-loading agent navigates)::

    <root>/
      manifest.json                  # ensemble file-structure dictionary
      run_000/
        step_000/particles.gio
        step_000/halos.gio
        step_000/galaxies.gio
        step_124/...
      run_001/...

Halo tags are stable across timesteps within a run (enabling the paper's
halo-tracking tool), masses follow a smooth accretion history, and small
halos emerge over cosmic time.  Each run carries its sub-grid parameter
vector in every file's attrs and in the manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.durable import atomic_publish
from repro.frame import Frame
from repro.gio import GIOFile, write_gio
from repro.sim.cosmology import Cosmology, DEFAULT_COSMOLOGY
from repro.sim.galaxies import build_galaxy_catalog
from repro.sim.halos import build_halo_catalog
from repro.sim.particles import PARTICLE_MASS, sample_halo_masses
from repro.sim.schema import COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS
from repro.sim.subgrid import SubgridParams, latin_hypercube_design
from repro.util.rngs import SeedSequenceFactory

DEFAULT_TIMESTEPS = (0, 124, 249, 374, 498, 624)


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of a synthetic ensemble.

    ``n_particles`` is per snapshot; the defaults generate a laptop-scale
    ensemble in seconds while preserving the full file hierarchy.
    """

    n_runs: int = 4
    timesteps: tuple[int, ...] = DEFAULT_TIMESTEPS
    n_particles: int = 4000
    box_size: float = 64.0
    seed: int = 20250
    write_particles: bool = True
    n_halos: int | None = None
    params: tuple[SubgridParams, ...] | None = None
    cosmology: Cosmology = field(default_factory=lambda: DEFAULT_COSMOLOGY)

    def validate(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if not self.timesteps:
            raise ValueError("timesteps must be non-empty")
        if any(t < 0 or t > self.cosmology.final_step for t in self.timesteps):
            raise ValueError("timesteps must lie in [0, final_step]")
        if sorted(self.timesteps) != list(self.timesteps):
            raise ValueError("timesteps must be increasing")
        if self.params is not None and len(self.params) != self.n_runs:
            raise ValueError("params must have one entry per run")


def _mass_history(final_mass: np.ndarray, z: float) -> np.ndarray:
    """Smooth accretion history M(z) = M_final * exp(-0.6 z) (1+z)^0.2."""
    return final_mass * np.exp(-0.6 * z) * (1.0 + z) ** 0.2


def _run_truth(spec: EnsembleSpec, seeds: SeedSequenceFactory, run: int, params) -> dict:
    """Final-time halo truth + particle population for one run.

    Everything here is a pure function of ``(spec.seed, run)`` through
    dedicated seed streams, which is what makes live ingestion exact:
    re-deriving the truth in a later process and writing one more step
    yields bytes identical to having generated that step up front.
    """
    run_rng = seeds.stream("run", run)
    # final-time halo truth for this run (tags stable across steps)
    n_halos = spec.n_halos or max(24, spec.n_particles // 150)
    final_mass = sample_halo_masses(n_halos, run_rng)
    centers = run_rng.uniform(0.0, spec.box_size, size=(n_halos, 3))
    bulk_v = run_rng.normal(0.0, 250.0, size=(n_halos, 3))
    tags = np.arange(n_halos, dtype=np.int64) + run * 1_000_000

    truth = {
        "params": params,
        "final_mass": final_mass,
        "centers": centers,
        "bulk_v": bulk_v,
        "tags": tags,
        "affiliation": None,
    }
    # persistent particle population: each particle is affiliated with
    # one halo (or the field) for the whole run, so particle IDs are
    # meaningful across snapshots and particle-overlap halo tracking
    # works exactly as it does on real HACC outputs
    if spec.write_particles:
        pop_rng = seeds.stream("run", run, "population")
        weights = final_mass / final_mass.sum()
        n_clustered = int(spec.n_particles * 0.75)
        affiliation = np.full(spec.n_particles, -1, dtype=np.int64)
        affiliation[:n_clustered] = pop_rng.choice(
            n_halos, size=n_clustered, p=weights
        )
        pop_rng.shuffle(affiliation)
        truth["affiliation"] = affiliation
    return truth


def _write_run_step(
    root: Path, spec: EnsembleSpec, seeds: SeedSequenceFactory, run: int,
    truth: dict, step: int,
) -> dict:
    """Write one (run, step) snapshot's files; return its manifest entry."""
    params = truth["params"]
    final_mass, centers, bulk_v, tags = (
        truth["final_mass"], truth["centers"], truth["bulk_v"], truth["tags"]
    )
    run_dir = root / f"run_{run:03d}"
    a = float(spec.cosmology.scale_factor(step))
    z = 1.0 / a - 1.0
    masses_t = _mass_history(final_mass, z)
    exists = masses_t >= 5 * PARTICLE_MASS
    drift = bulk_v * (a - 1.0) * 0.004  # small comoving drift
    centers_t = (centers + drift) % spec.box_size

    step_rng = seeds.stream("run", run, "step", step)
    halos = build_halo_catalog(
        tags[exists],
        masses_t[exists],
        centers_t[exists],
        bulk_v[exists],
        params,
        spec.cosmology,
        step,
        step_rng,
    )
    galaxies = build_galaxy_catalog(halos, params, a, step_rng)

    step_dir = run_dir / f"step_{step:03d}"
    attrs = {
        "run": run,
        "step": step,
        "scale_factor": a,
        "redshift": z,
        **{f"param_{k}": v for k, v in params.as_dict().items()},
    }
    files: dict[str, dict] = {}
    nbytes = write_gio(step_dir / "halos.gio", {n: halos.column(n) for n in halos.columns}, attrs)
    files["halos"] = {"file": "halos.gio", "nbytes": nbytes, "rows": halos.num_rows}
    nbytes = write_gio(
        step_dir / "galaxies.gio",
        {n: galaxies.column(n) for n in galaxies.columns},
        attrs,
    )
    files["galaxies"] = {"file": "galaxies.gio", "nbytes": nbytes, "rows": galaxies.num_rows}

    if spec.write_particles:
        particle_cols = _persistent_particle_snapshot(
            truth["affiliation"],
            exists,
            masses_t,
            centers_t,
            bulk_v,
            tags,
            spec.box_size,
            seeds.stream("run", run, "particles", step),
        )
        nbytes = write_gio(step_dir / "particles.gio", particle_cols, attrs)
        files["particles"] = {
            "file": "particles.gio",
            "nbytes": nbytes,
            "rows": len(particle_cols["id"]),
        }

    return {"step": step, "path": step_dir.name, "files": files}


def _publish_manifest(root: Path, manifest: dict) -> None:
    """Atomic manifest publish — the commit point of ensemble mutation.

    Live ingestion appends snapshots while serve sessions read; a reader
    must see either the old or the new manifest, never a torn one, and
    nothing downstream re-checks it, so the publish is verified.
    """
    atomic_publish(
        root / "manifest.json",
        json.dumps(manifest, indent=1).encode("utf-8"),
        verify=True,
        fault_point=faults.STORAGE_TORN_WRITE,
        what="ensemble manifest",
    )


def generate_ensemble(root: str | Path, spec: EnsembleSpec) -> "Ensemble":
    """Generate and write the full ensemble; returns an opened handle."""
    spec.validate()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    seeds = SeedSequenceFactory(spec.seed)

    params_list = (
        list(spec.params)
        if spec.params is not None
        else latin_hypercube_design(spec.n_runs, seeds.stream("design"))
    )

    manifest: dict = {
        "kind": "hacc-ensemble",
        "version": 1,
        "n_runs": spec.n_runs,
        "timesteps": list(spec.timesteps),
        "box_size": spec.box_size,
        "n_particles": spec.n_particles,
        # generator state: what a later process needs to re-derive the
        # per-run truth streams and extend the ensemble deterministically
        # (params are recorded per run, so custom designs survive too)
        "generator": {
            "seed": spec.seed,
            "n_halos": spec.n_halos,
            "write_particles": spec.write_particles,
        },
        "structure": FILE_STRUCTURE_DESCRIPTIONS,
        "column_descriptions": COLUMN_DESCRIPTIONS,
        "runs": [],
    }

    for run in range(spec.n_runs):
        params = params_list[run]
        run_dir = root / f"run_{run:03d}"
        truth = _run_truth(spec, seeds, run, params)
        run_entry: dict = {
            "run": run,
            "path": run_dir.name,
            "params": params.as_dict(),
            "steps": [],
        }
        for step in spec.timesteps:
            run_entry["steps"].append(
                _write_run_step(root, spec, seeds, run, truth, step)
            )
        manifest["runs"].append(run_entry)

    _publish_manifest(root, manifest)
    return Ensemble(root)


def append_snapshot(root: str | Path, step: int) -> "Ensemble":
    """Deterministically extend a live ensemble with one more timestep.

    Re-derives each run's truth from the manifest's recorded generator
    state and writes the new snapshot's files for every run, then commits
    via a single atomic manifest publish — the files of
    ``generate_ensemble(steps + [step])`` and ``generate_ensemble(steps)``
    + ``append_snapshot(step)`` are byte-identical, so a query pinned to
    either manifest version has an exact quiescent twin.

    A crash before the manifest publish leaves only orphan step files the
    manifest never references; retrying the append overwrites them.
    """
    root = Path(root)
    ens = Ensemble(root)
    manifest = json.loads(json.dumps(ens.manifest))  # private working copy
    gen = manifest.get("generator")
    if gen is None:
        raise ValueError(
            f"ensemble at {root} was written by an older version (manifest has no "
            "generator state) and cannot be extended"
        )
    timesteps = list(manifest["timesteps"])
    if step in timesteps:
        raise ValueError(f"step {step} already present in {timesteps}")
    if timesteps and step < timesteps[-1]:
        raise ValueError(f"step {step} must follow the last step {timesteps[-1]}")
    spec = EnsembleSpec(
        n_runs=int(manifest["n_runs"]),
        timesteps=tuple(timesteps) + (int(step),),
        n_particles=int(manifest["n_particles"]),
        box_size=float(manifest["box_size"]),
        seed=int(gen["seed"]),
        write_particles=bool(gen.get("write_particles", True)),
        n_halos=gen.get("n_halos"),
    )
    spec.validate()
    seeds = SeedSequenceFactory(spec.seed)

    for run_entry in manifest["runs"]:
        run = int(run_entry["run"])
        params = SubgridParams(**run_entry["params"])
        truth = _run_truth(spec, seeds, run, params)
        step_entry = _write_run_step(root, spec, seeds, run, truth, int(step))
        if faults.fire_ingest_kill(faults.INGEST_KILL_APPLY):
            from repro.db.errors import IngestKilled

            raise IngestKilled(
                "ensemble-append",
                f"run {run} step {step} written, manifest publish pending",
            )
        run_entry["steps"].append(step_entry)

    manifest["timesteps"] = timesteps + [int(step)]
    manifest["version"] = int(manifest.get("version", 1)) + 1
    _publish_manifest(root, manifest)
    return Ensemble(root)


def _persistent_particle_snapshot(
    affiliation: np.ndarray,
    exists: np.ndarray,
    masses_t: np.ndarray,
    centers_t: np.ndarray,
    bulk_v: np.ndarray,
    tags: np.ndarray,
    box_size: float,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """One snapshot of the run's persistent particle population.

    Particle identities (and halo affiliations) are fixed for the run;
    only positions/velocities are realized per snapshot.  Particles whose
    halo has not emerged yet are field particles at that snapshot.
    """
    n = len(affiliation)
    positions = rng.uniform(0.0, box_size, size=(n, 3))
    velocities = rng.normal(0.0, 80.0, size=(n, 3))
    phi = np.zeros(n)

    member = (affiliation >= 0) & exists[np.maximum(affiliation, 0)]
    halo_of = affiliation[member]
    r_scale = 0.8 * (masses_t / 1e13) ** (1.0 / 3.0)
    u = rng.uniform(0.0, 1.0, size=int(member.sum()))
    radii = r_scale[halo_of] * u**1.5
    directions = rng.normal(size=(int(member.sum()), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    positions[member] = centers_t[halo_of] + radii[:, None] * directions
    sigma_v = 120.0 * (masses_t / 1e13) ** (1.0 / 3.0)
    velocities[member] = bulk_v[halo_of] + rng.normal(
        size=(int(member.sum()), 3)
    ) * sigma_v[halo_of, None]
    phi[member] = -masses_t[halo_of] / (radii + 0.05) / 1e13

    particle_tag = np.full(n, -1, dtype=np.int64)
    particle_tag[member] = tags[halo_of]
    return {
        "id": np.arange(n, dtype=np.int64),
        "x": positions[:, 0] % box_size,
        "y": positions[:, 1] % box_size,
        "z": positions[:, 2] % box_size,
        "vx": velocities[:, 0],
        "vy": velocities[:, 1],
        "vz": velocities[:, 2],
        "mass": np.full(n, PARTICLE_MASS),
        "phi": phi,
        "fof_halo_tag": particle_tag,
    }


class Ensemble:
    """Read-only handle over a generated ensemble directory.

    A handle parses the manifest once; with live ingestion appending
    snapshots, :meth:`reload` re-reads it (wholesale reference swap, so
    concurrent readers holding the old dict keep a consistent view) and
    :meth:`pinned` freezes the currently-parsed manifest into a cheap
    immutable view for the duration of a request.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        manifest_path = self.root / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"{self.root} is not an ensemble (no manifest.json)")
        self.manifest: dict = json.loads(manifest_path.read_text())

    def reload(self) -> "Ensemble":
        """Re-read the manifest (picks up snapshots committed since open)."""
        manifest_path = self.root / "manifest.json"
        self.manifest = json.loads(manifest_path.read_text())
        return self

    def pinned(self) -> "Ensemble":
        """A snapshot-isolated view over the manifest as currently parsed.

        The returned handle shares this handle's manifest *object*;
        because :meth:`reload` swaps the reference rather than mutating in
        place, the pinned view keeps serving the same catalog of runs and
        steps no matter how many snapshots land after the pin.
        """
        view = object.__new__(Ensemble)
        view.root = self.root
        view.manifest = self.manifest
        return view

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic manifest version; bumped by every committed snapshot
        append (1 for ensembles written before versions existed)."""
        return int(self.manifest.get("version", 1))

    @property
    def n_runs(self) -> int:
        return int(self.manifest["n_runs"])

    @property
    def timesteps(self) -> list[int]:
        return list(self.manifest["timesteps"])

    @property
    def box_size(self) -> float:
        return float(self.manifest["box_size"])

    def params_for(self, run: int) -> SubgridParams:
        return SubgridParams(**self.manifest["runs"][run]["params"])

    def entity_kinds(self, run: int = 0, step: int | None = None) -> list[str]:
        step = step if step is not None else self.timesteps[0]
        entry = self._step_entry(run, step)
        return list(entry["files"])

    def _step_entry(self, run: int, step: int) -> dict:
        if not (0 <= run < self.n_runs):
            raise IndexError(f"run {run} out of range [0, {self.n_runs})")
        for entry in self.manifest["runs"][run]["steps"]:
            if entry["step"] == step:
                return entry
        raise KeyError(f"run {run} has no step {step}; available: {self.timesteps}")

    def file_path(self, run: int, step: int, kind: str) -> Path:
        entry = self._step_entry(run, step)
        if kind not in entry["files"]:
            raise KeyError(f"no {kind!r} file at run {run} step {step}")
        return (
            self.root
            / self.manifest["runs"][run]["path"]
            / entry["path"]
            / entry["files"][kind]["file"]
        )

    def open_file(self, run: int, step: int, kind: str) -> GIOFile:
        return GIOFile(self.file_path(run, step, kind))

    def read(self, run: int, step: int, kind: str, columns: list[str] | None = None) -> Frame:
        return self.open_file(run, step, kind).read(columns)

    def total_data_bytes(self) -> int:
        """Total payload bytes across the ensemble (denominator of the
        paper's <0.35% storage-overhead claim)."""
        total = 0
        for run_entry in self.manifest["runs"]:
            for step_entry in run_entry["steps"]:
                for meta in step_entry["files"].values():
                    total += int(meta["nbytes"])
        return total

    def describe(self) -> str:
        """Human-readable summary used by examples and the data loader."""
        lines = [
            f"Ensemble at {self.root}",
            f"  runs: {self.n_runs}",
            f"  timesteps: {self.timesteps}",
            f"  total bytes: {self.total_data_bytes():,}",
        ]
        for run_entry in self.manifest["runs"][:4]:
            p = run_entry["params"]
            lines.append(
                f"  run {run_entry['run']}: f_SN={p['f_SN']:.2f} "
                f"log_vSN={p['log_vSN']:.2f} log_TAGN={p['log_TAGN']:.2f} "
                f"beta_BH={p['beta_BH']:.2f} M_seed={p['M_seed']:.2e}"
            )
        if self.n_runs > 4:
            lines.append(f"  ... ({self.n_runs - 4} more runs)")
        return "\n".join(lines)
