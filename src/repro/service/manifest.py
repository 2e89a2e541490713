"""Batch manifests: declarative job lists for the allocation service.

A manifest is a JSON document (schema ``repro.service/manifest/v1``)
naming the instances a batch should solve::

    {
      "schema": "repro.service/manifest/v1",
      "defaults": {"registers": 4, "model": "static"},
      "jobs": [
        {"kind": "figure", "name": "fig3"},
        {"kind": "kernel", "name": "fir", "taps": 8},
        {"kind": "random", "count": 100, "variables": 10, "horizon": 12},
        {"kind": "instance", "path": "cases/fir8.json"}
      ]
    }

Job kinds:

* ``kernel`` — a synthesised DSP kernel from the shared registry
  (:func:`repro.workloads.registry.kernel_block`), scheduled with the
  list scheduler.  ``count > 1`` replicates the job with derived seeds.
* ``figure`` — a paper worked example (``fig1``/``fig3``/``fig4``);
  figures 3 and 4 carry their pairwise switching-activity tables.
* ``instance`` — a serialised ``repro-instance-v1`` document
  (:mod:`repro.workloads.serialize`), path relative to the manifest.
* ``random`` — seeded random lifetime sets
  (:func:`repro.workloads.random_blocks.random_lifetimes`); ``count``
  independent instances derived from one seed.

Per-job keys override ``defaults``; both recognise ``registers``,
``model`` (``static``/``activity``), ``divisor`` (restricted memory
operating point, at least 1 — the supply voltage follows the divisor),
``voltage`` (explicit memory supply override: a *cost-only*
perturbation that keeps the flow-network topology intact), ``seed``,
``taps``, and for random jobs ``variables``,
``horizon``, ``traced``.  When ``registers`` is omitted the instance's
maximum lifetime density is used (every variable can be
register-resident if the flow wants it).

Schema v2 (``repro.service/manifest/v2``) additionally recognises a
``storage`` operating-point key (in ``defaults`` or per job): either a
full ``repro/storage-spec/v1`` document (``{"levels": [...]}``) or the
banked shorthand ``{"banks": N, "period": P, "ports": ..., "capacity":
..., "voltages": [...], "stagger": ...}`` expanding through
:meth:`~repro.core.storage.StorageSpec.banked`.  v1 documents parse
verbatim (``storage`` defaults to the implicit two-level hierarchy) and
are rejected if they try to carry a ``storage`` key.

Manifests usually arrive as files (:func:`load_manifest`), but the
allocation server receives them as request bodies —
:func:`parse_manifest` validates an already-decoded document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.problem import AllocationProblem
from repro.core.storage import StorageSpec
from repro.energy import (
    ActivityEnergyModel,
    MemoryConfig,
    PairwiseSwitchingModel,
    StaticEnergyModel,
)
from repro.exceptions import ReproError, ServiceError
from repro.lifetimes import extract_lifetimes, max_density
from repro.scheduling import list_schedule
from repro.workloads.random_blocks import derive_seed, random_lifetimes, spawn_rng
from repro.workloads.registry import figure_example, kernel_block
from repro.workloads.serialize import problem_from_dict

__all__ = [
    "BuiltWorkload",
    "Manifest",
    "WorkloadSpec",
    "load_manifest",
    "parse_manifest",
]

#: Original schema identifier (no ``storage`` operating point).
SCHEMA_V1 = "repro.service/manifest/v1"

#: Current schema identifier (adds the ``storage`` operating point).
SCHEMA_V2 = "repro.service/manifest/v2"

#: Accepted schema identifiers, oldest first.
SCHEMAS = (SCHEMA_V1, SCHEMA_V2)

#: Backwards-compatible alias for the v1 identifier (historical name).
SCHEMA = SCHEMA_V1

_KINDS = ("kernel", "figure", "instance", "random")


@dataclass(frozen=True)
class WorkloadSpec:
    """One manifest job line (declarative, not yet built).

    Attributes:
        kind: ``kernel``, ``figure``, ``instance`` or ``random``.
        name: Workload name (kernel/figure kinds).
        path: Instance file path (instance kind).
        count: Replication factor (seeds are derived per replica).
        label: Display label override (auto-generated when empty).
        params: Remaining per-job keys, merged over manifest defaults.
    """

    kind: str
    name: str = ""
    path: str | None = None
    count: int = 1
    label: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BuiltWorkload:
    """A manifest job materialised into a solvable instance.

    Attributes:
        label: Display label (unique within the batch by construction).
        problem: The allocation instance to solve.
        schedule: The schedule the lifetimes were extracted from, for
            job kinds that have one (kernels); enables the
            schedule-aware lint rules (RA1xx, RA602) at admission time.
    """

    label: str
    problem: AllocationProblem
    schedule: Any = None


def _operating_point(params: Mapping[str, Any]):
    """Energy model + memory config for a job's parameter set."""
    divisor = int(params.get("divisor", 1))
    if divisor < 1:
        raise ServiceError(f"divisor must be >= 1, got {divisor}")
    voltage = params.get("voltage")
    model_name = str(params.get("model", "static"))
    if model_name == "activity":
        model = ActivityEnergyModel()
    elif model_name == "static":
        model = StaticEnergyModel()
    else:
        raise ServiceError(
            f"unknown energy model {model_name!r} (static/activity)"
        )
    memory = MemoryConfig()
    if divisor > 1:
        memory = MemoryConfig.scaled(divisor)
    if voltage is not None:
        # Explicit supply override: costs change, access times (and
        # therefore the network topology) do not.
        memory = MemoryConfig(
            divisor=memory.divisor,
            voltage=float(voltage),
            offset=memory.offset,
        )
    if divisor > 1 or voltage is not None:
        model = model.with_voltages(memory.voltage, model.reg_voltage)
    return model, memory


def _storage_spec(params: Mapping[str, Any]) -> StorageSpec | None:
    """Expand a job's ``storage`` key into a :class:`StorageSpec`.

    Accepts a full ``repro/storage-spec/v1`` document or the banked
    shorthand (``banks``/``period``/``ports``/``capacity``/``voltages``/
    ``stagger``); returns ``None`` when the job has no ``storage`` key.
    """
    data = params.get("storage")
    if data is None:
        return None
    if isinstance(data, StorageSpec):
        return data
    if not isinstance(data, Mapping):
        raise ServiceError("storage must be a JSON object")
    try:
        if "levels" in data:
            return StorageSpec.from_dict(data)
        voltages = data.get("voltages")
        return StorageSpec.banked(
            int(data.get("banks", 2)),
            int(data.get("period", 2)),
            ports=(
                int(data["ports"]) if data.get("ports") is not None else None
            ),
            capacity=(
                int(data["capacity"])
                if data.get("capacity") is not None
                else None
            ),
            voltages=(
                [float(v) for v in voltages] if voltages is not None else None
            ),
            stagger=bool(data.get("stagger", True)),
        )
    except (ReproError, ValueError, TypeError, KeyError) as exc:
        raise ServiceError(f"bad storage operating point: {exc}") from None


def _storage_voltages(model, storage: StorageSpec | None):
    """Charge *model* at the hierarchy's reference supply.

    The storage spec's reference bank replaces the classic memory
    operating point (``AllocationProblem`` re-derives ``memory`` from
    it), so the model must follow — exactly as ``divisor``/``voltage``
    jobs rescale through :func:`_operating_point`.
    """
    if storage is None:
        return model
    return model.with_voltages(storage.reference.voltage, model.reg_voltage)


def _registers(params: Mapping[str, Any], lifetimes, horizon: int) -> int:
    explicit = params.get("registers")
    if explicit is not None:
        return int(explicit)
    return max(1, max_density(lifetimes.values(), horizon))


def _build_kernel(spec: WorkloadSpec, params: Mapping[str, Any], index: int):
    seed = int(params.get("seed", 2024))
    if spec.count > 1:
        seed = derive_seed(seed, spec.name, index)
    block = kernel_block(
        spec.name, taps=int(params.get("taps", 8)), seed=seed
    )
    schedule = list_schedule(block)
    model, memory = _operating_point(params)
    storage = _storage_spec(params)
    lifetimes = extract_lifetimes(schedule)
    problem = AllocationProblem.from_schedule(
        schedule,
        register_count=_registers(params, lifetimes, schedule.length),
        energy_model=_storage_voltages(model, storage),
        memory=memory,
        storage=storage,
    )
    label = spec.label or spec.name
    if spec.count > 1:
        label = f"{label}#{index}"
    return BuiltWorkload(label, problem, schedule=schedule)


def _build_figure(spec: WorkloadSpec, params: Mapping[str, Any]):
    lifetimes, horizon, activities = figure_example(spec.name)
    model, memory = _operating_point(params)
    storage = _storage_spec(params)
    if activities is not None:
        model = PairwiseSwitchingModel(activities)
        if memory.restricted or params.get("voltage") is not None:
            model = model.with_voltages(memory.voltage, model.reg_voltage)
    problem = AllocationProblem(
        lifetimes,
        _registers(params, lifetimes, horizon),
        horizon,
        energy_model=_storage_voltages(model, storage),
        memory=memory,
        storage=storage,
    )
    return BuiltWorkload(spec.label or spec.name, problem)


def _build_instance(spec: WorkloadSpec, base: Path):
    assert spec.path is not None
    path = Path(spec.path)
    if not path.is_absolute():
        path = base / path
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        problem = problem_from_dict(data)
    except OSError as exc:
        raise ServiceError(f"cannot read instance {path}: {exc}") from None
    except (ValueError, ReproError) as exc:
        raise ServiceError(f"bad instance {path}: {exc}") from None
    return BuiltWorkload(spec.label or path.stem, problem)


def _build_random(spec: WorkloadSpec, params: Mapping[str, Any], index: int):
    seed = int(params.get("seed", 0))
    label = spec.label or spec.name or "random"
    rng = spawn_rng(seed, "manifest", label, index)
    horizon = int(params.get("horizon", 12))
    lifetimes = random_lifetimes(
        rng,
        int(params.get("variables", 8)),
        horizon,
        traced=bool(params.get("traced", False)),
    )
    model, memory = _operating_point(params)
    storage = _storage_spec(params)
    problem = AllocationProblem(
        lifetimes,
        _registers(params, lifetimes, horizon),
        horizon,
        energy_model=_storage_voltages(model, storage),
        memory=memory,
        storage=storage,
    )
    suffix = f"#{index}" if spec.count > 1 else ""
    return BuiltWorkload(f"{label}{suffix}", problem)


@dataclass(frozen=True)
class Manifest:
    """A parsed batch manifest: defaults plus job specs.

    Attributes:
        specs: Declarative job lines, in document order.
        defaults: Manifest-wide parameter defaults.
        base: Directory relative instance paths resolve against.
    """

    specs: tuple[WorkloadSpec, ...]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    base: Path = Path(".")
    schema: str = SCHEMA_V1

    def job_count(self) -> int:
        """Jobs :meth:`build` will produce (replicas expanded), cheaply.

        The admission queue weighs a request by this number before
        anything is materialised, so a huge batch is shed up front
        instead of after paying its construction cost.
        """
        return sum(spec.count for spec in self.specs)

    def build(self) -> list[BuiltWorkload]:
        """Materialise every job into a labelled problem instance.

        Replicated jobs (``count > 1``) expand in place, so the result
        order matches the manifest's job order.

        Raises:
            ServiceError: A job's parameters do not build, prefixed with
                its position (``jobs[i]: ...``).
        """
        built: list[BuiltWorkload] = []
        for position, spec in enumerate(self.specs):
            params = {**self.defaults, **spec.params}
            try:
                for index in range(spec.count):
                    if spec.kind == "kernel":
                        built.append(_build_kernel(spec, params, index))
                    elif spec.kind == "figure":
                        built.append(_build_figure(spec, params))
                    elif spec.kind == "instance":
                        built.append(_build_instance(spec, self.base))
                    else:
                        built.append(_build_random(spec, params, index))
            except (ReproError, ValueError, TypeError) as exc:
                raise ServiceError(f"jobs[{position}]: {exc}") from None
        return built


def _parse_spec(data: Mapping[str, Any], position: int) -> WorkloadSpec:
    """Validate and normalise one ``jobs[]`` entry."""
    if not isinstance(data, Mapping):
        raise ServiceError(f"jobs[{position}] is not an object")
    kind = str(data.get("kind", ""))
    if kind not in _KINDS:
        raise ServiceError(
            f"jobs[{position}]: unknown kind {kind!r}; expected {_KINDS}"
        )
    name = str(data.get("name", ""))
    path = data.get("path")
    count = int(data.get("count", 1))
    if count < 1:
        raise ServiceError(f"jobs[{position}]: count must be >= 1")
    if kind in ("kernel", "figure") and not name:
        raise ServiceError(f"jobs[{position}]: {kind} jobs need a name")
    if kind == "instance" and not path:
        raise ServiceError(f"jobs[{position}]: instance jobs need a path")
    if kind == "figure" and count != 1:
        raise ServiceError(
            f"jobs[{position}]: figure jobs are deterministic; count "
            "must be 1"
        )
    params = {
        key: value
        for key, value in data.items()
        if key not in ("kind", "name", "path", "count", "label")
    }
    return WorkloadSpec(
        kind=kind,
        name=name,
        path=str(path) if path is not None else None,
        count=count,
        label=str(data.get("label", "")),
        params=params,
    )


def parse_manifest(
    data: Any,
    base: str | Path = ".",
    source: str = "<manifest>",
) -> Manifest:
    """Validate an already-decoded manifest document.

    Args:
        data: The decoded JSON value (must be a mapping carrying one of
            the ``repro.service/manifest/v1``/``v2`` schemas; only v2
            documents may use the ``storage`` operating-point key).
        base: Directory relative ``instance`` paths resolve against.
        source: Label used in error messages (a path or ``<request>``).

    Raises:
        ServiceError: Wrong shape, wrong schema or a malformed job line.
    """
    if not isinstance(data, Mapping):
        raise ServiceError(f"manifest {source} must be a JSON object")
    schema = data.get("schema")
    if schema not in SCHEMAS:
        raise ServiceError(
            f"manifest {source}: schema {schema!r} is not one of "
            f"{list(SCHEMAS)}"
        )
    jobs = data.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ServiceError(
            f"manifest {source}: jobs must be a non-empty list"
        )
    defaults = data.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise ServiceError(f"manifest {source}: defaults must be an object")
    specs = tuple(
        _parse_spec(job, position) for position, job in enumerate(jobs)
    )
    if schema == SCHEMA_V1:
        carriers = [
            f"jobs[{position}]"
            for position, spec in enumerate(specs)
            if "storage" in spec.params
        ]
        if "storage" in defaults:
            carriers.insert(0, "defaults")
        if carriers:
            raise ServiceError(
                f"manifest {source}: {', '.join(carriers)} carry a "
                f"'storage' operating point, which needs schema "
                f"{SCHEMA_V2}"
            )
    return Manifest(
        specs=specs, defaults=dict(defaults), base=Path(base), schema=schema
    )


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate the manifest document at *path*.

    Raises:
        ServiceError: Unreadable file, bad JSON, wrong schema or a
            malformed job line.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ServiceError(f"cannot read manifest {path}: {exc}") from None
    except ValueError as exc:
        raise ServiceError(f"manifest {path} is not JSON: {exc}") from None
    return parse_manifest(data, base=path.parent, source=str(path))
