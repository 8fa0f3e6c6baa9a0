"""Job recipes: experiment specs expanded into stage-typed graph nodes.

:func:`plan_experiments` turns a list of
:class:`~repro.runtime.parallel.ExperimentSpec` into one
:class:`~repro.sched.graph.JobGraph`:

* one **trace** job per distinct (workload, input) — record once,
  persist the memmap columns;
* one **profile** and one **place** job per distinct (workload, train
  input, geometry, placer) recipe — Table 2 and Table 4 requests for the
  same program collapse onto the same nodes here;
* one **measure** job per (workload, test input, placement arm);
* one **aggregate** node per spec, executed in the parent, that
  reassembles the :class:`~repro.runtime.driver.ExperimentResult`.

Job identity is a digest over the recipe built with
:func:`repro.store.keys.store_key` — the same canonical-JSON + salt
machinery as the artifact store — so a job's key changes exactly when
its store entries would.  Stage jobs return only a tiny timing payload;
artifacts flow through the content-addressed store (or, for store-less
inline runs, an in-memory bag), never through the process boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..cache.config import CacheConfig
from ..obs import telemetry as obs
from ..store import keys as store_keys
from ..store import stages as store_stages
from ..store import traces as store_traces
from ..store.store import ArtifactStore
from .costs import job_cost
from .graph import SATISFIED, Job, JobGraph

#: Seed the experiment harnesses use for the random-placement arm.
RANDOM_SEED = 12345


@dataclass(frozen=True)
class JobSpec:
    """One stage execution, picklable (strings and scalars only)."""

    kind: str  # trace | profile | place | measure | stats
    workload: str
    input_name: str
    cache: tuple | None = None  # (size, line_size, associativity)
    train_input: str | None = None  # measure(ccdp): where the placement trained
    place_heap: bool = False
    cost_model: str = "direct"  # place: direct | assoc | two-level
    policy: str = "natural"  # measure: natural | ccdp | random
    seed: int = RANDOM_SEED
    classify: bool = False
    track_pages: bool = False

    @property
    def label(self) -> str:
        suffix = f":{self.policy}" if self.kind == "measure" else ""
        return f"{self.kind}:{self.workload}/{self.input_name}{suffix}"


def _cache_tuple(config: CacheConfig | None) -> tuple | None:
    if config is None:
        return None
    return (config.size, config.line_size, config.associativity)


def _config(spec: JobSpec) -> CacheConfig | None:
    return CacheConfig(*spec.cache) if spec.cache else None


def _job_key(kind: str, fields: dict) -> str:
    """Graph identity for one job: store-key digest over its recipe."""
    return store_keys.store_key(f"job/{kind}", fields)


def bag_key(spec: JobSpec) -> tuple:
    """In-memory artifact key for store-less runs (semantic, not digest)."""
    base: tuple = (spec.kind, spec.workload, spec.input_name, spec.cache)
    if spec.kind == "place":
        base += (spec.place_heap, spec.cost_model)
    elif spec.kind == "measure":
        base += (spec.policy, spec.seed, spec.classify, spec.track_pages)
    return base


# -- graph construction -------------------------------------------------------


def _trace_job(graph: JobGraph, workload: str, input_name: str) -> Job:
    spec = JobSpec(kind="trace", workload=workload, input_name=input_name)
    return graph.add(
        "trace",
        _job_key("trace", {"workload": workload, "input": input_name}),
        label=spec.label,
        spec=spec,
        cost=job_cost("trace", workload),
    )


def plan_experiments(specs) -> tuple[JobGraph, list[Job]]:
    """Expand experiment specs into one deduplicated job graph.

    Returns the sealed graph and the per-spec aggregate jobs (in spec
    order).
    """
    from ..core.cost_model import COST_MODEL_NAMES
    from ..workloads import make_workload

    graph = JobGraph()
    aggregates: list[Job] = []
    params = store_stages.profile_params(None)
    for spec in specs:
        if spec.cost_model not in COST_MODEL_NAMES:
            raise ValueError(
                f"unknown cost model {spec.cost_model!r}; "
                f"expected one of {COST_MODEL_NAMES}"
            )
        workload = make_workload(spec.workload)
        name = workload.name
        train = workload.train_input
        test = train if spec.same_input else workload.test_input
        config = spec.cache_config
        cache = _cache_tuple(config)
        cache_fields = store_keys.config_fields(config)
        heap = workload.place_heap

        t_train = _trace_job(graph, name, train)
        t_test = t_train if test == train else _trace_job(graph, name, test)

        profile_spec = JobSpec(
            kind="profile", workload=name, input_name=train, cache=cache
        )
        profile = graph.add(
            "profile",
            _job_key(
                "profile",
                {
                    "workload": name,
                    "input": train,
                    "cache": cache_fields,
                    "params": params,
                },
            ),
            label=profile_spec.label,
            spec=profile_spec,
            deps=[t_train],
            cost=job_cost("profile", name),
        )
        place_spec = JobSpec(
            kind="place",
            workload=name,
            input_name=train,
            cache=cache,
            place_heap=heap,
            cost_model=spec.cost_model,
        )
        place_fields = {
            "workload": name,
            "input": train,
            "cache": cache_fields,
            "params": params,
            "place_heap": heap,
        }
        # Mirror the store-key schema: the default model stays out of the
        # recipe so pre-existing place jobs keep their identity.
        if spec.cost_model != "direct":
            place_fields["cost_model"] = spec.cost_model
        place = graph.add(
            "place",
            _job_key("place", place_fields),
            label=place_spec.label,
            spec=place_spec,
            deps=[profile],
            cost=job_cost("place", name),
        )

        def measure_job(policy: str, deps: list[Job]) -> Job:
            measure_spec = JobSpec(
                kind="measure",
                workload=name,
                input_name=test,
                cache=cache,
                train_input=train,
                place_heap=heap,
                cost_model=spec.cost_model,
                policy=policy,
                classify=spec.classify,
                track_pages=spec.track_pages,
            )
            fields = {
                "workload": name,
                "input": test,
                "cache": cache_fields,
                "classify": spec.classify,
                "track_pages": spec.track_pages,
                "policy": policy,
            }
            if policy == "random":
                fields["seed"] = measure_spec.seed
            elif policy == "ccdp":
                # The placement digest is unknown until the place job
                # runs; its *job key* stands in — same recipe, same arm.
                fields["place_job"] = place.key
            return graph.add(
                "measure",
                _job_key("measure", fields),
                label=measure_spec.label,
                spec=measure_spec,
                deps=deps,
                cost=job_cost("measure", name),
            )

        original = measure_job("natural", [t_test])
        ccdp = measure_job("ccdp", [t_test, place])
        random_m = (
            measure_job("random", [t_test]) if spec.include_random else None
        )

        agg_deps = [profile, place, original, ccdp]
        if random_m is not None:
            agg_deps.append(random_m)
        aggregate_fields = {
            "workload": name,
            "train": train,
            "test": test,
            "cache": cache_fields,
            "include_random": spec.include_random,
            "classify": spec.classify,
            "track_pages": spec.track_pages,
        }
        if spec.cost_model != "direct":
            aggregate_fields["cost_model"] = spec.cost_model
        aggregate = graph.add(
            "aggregate",
            _job_key("aggregate", aggregate_fields),
            label=f"aggregate:{name}/{test}",
            spec=spec,
            deps=agg_deps,
            cost=job_cost("aggregate", name),
        )
        aggregate.meta.setdefault("roles", {}).update(
            {
                "profile": profile,
                "place": place,
                "original": original,
                "ccdp": ccdp,
                "random": random_m,
            }
        )
        aggregates.append(aggregate)
    graph.seal()
    return graph, aggregates


# -- warm-prune probe pass ----------------------------------------------------


def _trace_data_present(store: ArtifactStore, fingerprint: str) -> bool:
    fields = {"fingerprint": fingerprint}
    payload = store.get(
        store_traces.KIND_TRACE, store.key(store_traces.KIND_TRACE, fields)
    )
    if not isinstance(payload, dict):
        return False
    files = (
        (store_traces.trace_data_path(store, fingerprint), "data_bytes"),
        (store_traces.trace_ops_path(store, fingerprint), "ops_bytes"),
    )
    try:
        return all(
            path.stat().st_size == int(payload.get(size_key, -1))
            for path, size_key in files
        )
    except (OSError, TypeError, ValueError):
        return False


def _probe_job(store: ArtifactStore, job: Job) -> tuple[bool, dict]:
    """Is this job's artifact already in the store?  (warm, meta)."""
    spec: JobSpec = job.spec
    config = _config(spec)
    params = store_stages.profile_params(None)
    if spec.kind == "trace":
        fingerprint = store_stages.known_fingerprint(
            store, spec.workload, spec.input_name
        )
        if fingerprint is None or not _trace_data_present(store, fingerprint):
            return False, {}
        return True, {"fingerprint": fingerprint}
    fingerprint = store_stages.known_fingerprint(
        store, spec.workload, spec.input_name
    )
    if fingerprint is None:
        return False, {}

    def present(kind: str, fields: dict) -> bool:
        return store.get(kind, store.key(kind, fields)) is not None

    if spec.kind == "profile":
        return (
            present(
                store_stages.KIND_PROFILE,
                store_stages._profile_fields(fingerprint, config, params),
            ),
            {},
        )
    if spec.kind == "place":
        placement = store_stages.try_load_placement(
            store,
            spec.workload,
            spec.input_name,
            config,
            spec.place_heap,
            cost_model=spec.cost_model,
        )
        if placement is None:
            return False, {}
        return True, {
            "placement_digest": store_stages.placement_digest(placement)
        }
    if spec.kind == "stats":
        return present(store_stages.KIND_STATS, {"trace": fingerprint}), {}
    if spec.kind == "measure":
        policy = _measure_policy(spec, job)
        if policy is None:
            return False, {}
        return (
            present(
                store_stages.KIND_MEASURE,
                store_stages._measure_fields(
                    fingerprint,
                    config,
                    policy,
                    spec.classify,
                    spec.track_pages,
                ),
            ),
            {},
        )
    return False, {}


def _measure_policy(spec: JobSpec, job: Job) -> dict | None:
    """Store policy fields for one measure job (None when undecidable)."""
    if spec.policy == "natural":
        return {"kind": "natural"}
    if spec.policy == "random":
        from ..runtime.resolvers import RandomResolver

        return store_stages.resolver_policy(RandomResolver(seed=spec.seed))
    # ccdp: the placement digest comes from the warm-probed place job.
    for dep in job.deps:
        if dep.kind == "place":
            digest = dep.meta.get("placement_digest")
            if digest is None:
                return None
            return {
                "kind": "ccdp",
                "placement": digest,
                "compact_heap": False,
            }
    return None


def probe_graph(store: ArtifactStore, graph: JobGraph) -> int:
    """Mark every warm job pruned (partial-graph resume); returns count.

    Lookups run under :meth:`ArtifactStore.probing`: a found artifact
    commits its hits once, a cold probe's misses never count — the same
    single-source accounting the dispatcher's warm path uses.  A cold
    trace job whose dependents all pruned is pruned too: nothing left in
    the graph needs its columns.
    """
    pruned = 0
    for job in graph.topo_order():
        if job.kind == "aggregate":
            continue
        with store.probing() as probe:
            warm, meta = _probe_job(store, job)
        if warm:
            probe.commit()
            job.meta.update(meta)
            graph.mark_pruned(job)
            pruned += 1
    for job in graph.topo_order():
        if (
            job.kind == "trace"
            and job.state not in SATISFIED
            and job.dependents
            and all(dep.state in SATISFIED for dep in job.dependents)
        ):
            graph.mark_pruned(job)
            pruned += 1
    return pruned


# -- stage execution ----------------------------------------------------------


def run_job(spec: JobSpec, bag: dict | None = None) -> dict:
    """Execute one stage job; artifacts go to the store (or ``bag``).

    The returned payload carries the job's wall seconds plus its
    artifact (profile / placement / measurement — ``None`` for traces,
    whose columns stay in the store).  Shipping the artifact back lets
    the parent assemble results without re-decoding what a pooled
    worker just computed; each deduplicated stage crosses the process
    boundary once, however many experiments depend on it.
    """
    start = time.perf_counter()
    artifact = None
    with obs.span("sched.job", kind=spec.kind, task=spec.label):
        if spec.kind == "trace":
            _run_trace(spec)
        elif spec.kind == "profile":
            artifact = _run_profile(spec, bag)
        elif spec.kind == "place":
            artifact = _run_place(spec, bag)
        elif spec.kind == "measure":
            artifact = _run_measure(spec, bag)
        elif spec.kind == "stats":
            artifact = _run_stats(spec, bag)
        else:
            raise ValueError(f"unknown job kind: {spec.kind!r}")
    return {"seconds": time.perf_counter() - start, "artifact": artifact}


def _run_trace(spec: JobSpec) -> None:
    from ..experiments.common import cached_trace

    cached_trace(spec.workload, spec.input_name)


def _run_profile(spec: JobSpec, bag: dict | None):
    from ..experiments.common import cached_trace
    from ..runtime.driver import profile_workload
    from ..workloads import make_workload

    workload = make_workload(spec.workload)
    trace = cached_trace(spec.workload, spec.input_name)
    profile = profile_workload(
        workload, spec.input_name, _config(spec), trace=trace
    )
    if bag is not None:
        bag[bag_key(spec)] = profile
    return profile


def _run_place(spec: JobSpec, bag: dict | None):
    from ..core.algorithm import CCDPPlacer
    from ..core.cost_model import resolve_cost_model
    from ..experiments.common import cached_trace
    from ..runtime.driver import build_placement
    from ..store import current_store
    from ..workloads import make_workload

    config = _config(spec)
    profile = None
    if bag is not None:
        profile = bag.get(
            bag_key(
                JobSpec(
                    kind="profile",
                    workload=spec.workload,
                    input_name=spec.input_name,
                    cache=spec.cache,
                )
            )
        )
    store = current_store()
    if profile is not None:
        # The profile dependency just ran in this process: place from
        # the in-memory object instead of re-decoding the store entry.
        def compute():
            trace = cached_trace(spec.workload, spec.input_name)
            return CCDPPlacer(
                profile,
                cache_config=config,
                place_heap=spec.place_heap,
                cost_model=resolve_cost_model(spec.cost_model, config, trace),
            ).place()

        if store is None:
            placement = compute()
        else:
            placement = store_stages.cached_placement(
                store,
                cached_trace(spec.workload, spec.input_name),
                config,
                spec.place_heap,
                store_stages.profile_params({}),
                compute,
                cost_model=spec.cost_model,
            )
    else:
        workload = make_workload(spec.workload)
        trace = cached_trace(spec.workload, spec.input_name)
        _profile, placement = build_placement(
            workload,
            spec.input_name,
            config,
            place_heap=spec.place_heap,
            trace=trace,
            cost_model=spec.cost_model,
        )
    if bag is not None:
        bag[bag_key(spec)] = placement
    return placement


def _load_placement_for(spec: JobSpec, bag: dict | None):
    """The placement a ccdp measure job simulates under."""
    from ..store import current_store

    if bag is not None:
        placement = bag.get(
            bag_key(
                JobSpec(
                    kind="place",
                    workload=spec.workload,
                    input_name=spec.train_input,
                    cache=spec.cache,
                    place_heap=spec.place_heap,
                    cost_model=spec.cost_model,
                )
            )
        )
        if placement is not None:
            return placement
    store = current_store()
    if store is not None:
        placement = store_stages.try_load_placement(
            store,
            spec.workload,
            spec.train_input,
            _config(spec),
            spec.place_heap,
            cost_model=spec.cost_model,
        )
        if placement is not None:
            return placement
    # Dependency artifact unavailable (evicted mid-run?): recompute.
    from ..experiments.common import cached_trace
    from ..runtime.driver import build_placement
    from ..workloads import make_workload

    _profile, placement = build_placement(
        make_workload(spec.workload),
        spec.train_input,
        _config(spec),
        place_heap=spec.place_heap,
        trace=cached_trace(spec.workload, spec.train_input),
        cost_model=spec.cost_model,
    )
    return placement


def _run_measure(spec: JobSpec, bag: dict | None) -> None:
    from ..experiments.common import cached_trace
    from ..runtime.driver import measure_trace
    from ..runtime.resolvers import (
        CCDPResolver,
        NaturalResolver,
        RandomResolver,
    )

    trace = cached_trace(spec.workload, spec.input_name)
    if spec.policy == "natural":
        resolver = NaturalResolver()
    elif spec.policy == "random":
        resolver = RandomResolver(seed=spec.seed)
    else:
        resolver = CCDPResolver(_load_placement_for(spec, bag))
    result = measure_trace(
        trace,
        resolver,
        _config(spec),
        classify=spec.classify,
        track_pages=spec.track_pages,
    )
    if bag is not None:
        bag[bag_key(spec)] = result
    return result


def _run_stats(spec: JobSpec, bag: dict | None) -> None:
    from ..experiments.common import cached_trace
    from ..runtime.driver import collect_stats
    from ..workloads import make_workload

    workload = make_workload(spec.workload)
    trace = cached_trace(spec.workload, spec.input_name)
    stats = collect_stats(workload, spec.input_name, trace=trace)
    if bag is not None:
        bag[bag_key(spec)] = stats
    return stats


def job_entry(args: tuple) -> tuple[dict, dict | None]:
    """Pooled worker entry: one stage job against the parent's store root."""
    from ..runtime.parallel import _install_worker_store

    spec, store_root, with_telemetry = args
    if not with_telemetry:
        with _install_worker_store(store_root):
            return run_job(spec), None
    registry = obs.Telemetry()
    with obs.use(registry), _install_worker_store(store_root):
        payload = run_job(spec)
        obs.sample_peak_rss()
    return payload, registry.to_dict()


# -- aggregate assembly -------------------------------------------------------


def assemble_experiment(
    spec, aggregate: Job, store: ArtifactStore | None, bag: dict | None
):
    """Reassemble one spec's ExperimentResult from artifacts, or None.

    Prefers the in-memory bag — filled directly on inline runs, and by
    the artifact payloads pooled workers ship back on parallel runs —
    so assembly pays no JSON decode when every role executed this run.
    Falls back to a probing store load (warm-pruned roles have no
    payload) — the same
    :func:`~repro.store.stages.try_load_experiment` the warm path uses,
    committing its hits only on success.
    """
    from ..runtime.driver import ExperimentResult
    from ..workloads import make_workload

    workload = make_workload(spec.workload)
    train = workload.train_input
    test = train if spec.same_input else workload.test_input
    roles = aggregate.meta.get("roles", {})
    if bag is not None and roles:
        profile = bag.get(bag_key(roles["profile"].spec))
        placement = bag.get(bag_key(roles["place"].spec))
        original = bag.get(bag_key(roles["original"].spec))
        ccdp = bag.get(bag_key(roles["ccdp"].spec))
        random_job = roles.get("random")
        random_result = (
            bag.get(bag_key(random_job.spec))
            if random_job is not None
            else None
        )
        random_ok = not spec.include_random or random_result is not None
        complete = (
            profile is not None
            and placement is not None
            and original is not None
            and ccdp is not None
            and random_ok
        )
        if complete:
            return ExperimentResult(
                workload=workload.name,
                train_input=train,
                test_input=test,
                profile=profile,
                placement=placement,
                original=original,
                ccdp=ccdp,
                random=random_result,
            )
    if store is None:
        return None
    with store.probing() as probe:
        result = store_stages.try_load_experiment(
            store,
            workload,
            train,
            test,
            spec.cache_config,
            spec.include_random,
            RANDOM_SEED,
            spec.classify,
            spec.track_pages,
            cost_model=spec.cost_model,
        )
    if result is not None:
        probe.commit()
    return result
