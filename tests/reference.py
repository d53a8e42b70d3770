"""The reference loop every campaign equivalence suite compares against.

Serial :func:`~repro.core.parallel.execute_experiment` per job, full
replay from tick 0 (no checkpoint store), one job after another in job
order.  It is simpler than any driver — no pool, no checkpoint fork, no
fused lanes, no reorder buffer, no journal — so each driver feature is
checked against code that has none of them.

Job lists come from the campaign's own draw helpers, so the reference
executes exactly the experiments the campaign scheduled.
"""

from dataclasses import asdict

from repro.core.parallel import execute_experiment


def strip_wall(records):
    """Records as dicts without ``wall_seconds`` (host timing differs)."""
    rows = []
    for record in records:
        row = asdict(record)
        row.pop("wall_seconds")   # host timing necessarily differs
        rows.append(row)
    return rows


def reference_records(campaign, jobs):
    """Serial full-replay records of ``jobs``, in job order."""
    by_name = {s.name: s for s in campaign.scenarios}
    return [execute_experiment(by_name[name], campaign.config, fault, None)
            for name, fault in jobs]


def ticks_of(campaign):
    """The golden-derived tick source the draw helpers expect."""
    return lambda name: campaign.injection_ticks(campaign._by_name[name])


def random_jobs(campaign, n_experiments, seed=None, **interface):
    """The jobs ``campaign.random_campaign(n, seed, **interface)`` runs."""
    return campaign._random_jobs(n_experiments, seed, ticks_of(campaign),
                                 **interface)


def exhaustive_jobs(campaign, tick_stride=10, variable_names=None,
                    max_experiments=None, interface_grid=False):
    """The jobs ``campaign.exhaustive_campaign(...)`` runs."""
    jobs = []
    for scenario in campaign.scenarios:
        ticks = campaign.injection_ticks(scenario, stride=tick_stride)
        grid = campaign._exhaustive_grid(ticks, variable_names,
                                         interface_grid)
        jobs.extend((scenario.name, fault) for fault in grid)
    return jobs if max_experiments is None else jobs[:max_experiments]


def architectural_jobs(campaign, n_experiments, model=None, seed=None,
                       interface_hangs=False):
    """``(jobs, outcome_counts)`` of ``architectural_campaign(...)``."""
    return campaign._architectural_jobs(n_experiments, model, seed,
                                        ticks_of(campaign), interface_hangs)


def candidate_jobs(campaign, candidates, interface_probe=()):
    """Validation jobs of mined candidates, probes after each value job."""
    duration = campaign.config.fault_duration_ticks
    jobs = []
    for candidate in candidates:
        jobs.append((candidate.scenario,
                     candidate.to_fault_spec(duration_ticks=duration)))
        jobs.extend(campaign._probe_jobs(candidate, interface_probe))
    return jobs
