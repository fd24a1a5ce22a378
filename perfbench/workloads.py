"""The four benchmark workloads.

Each workload is a closed loop with one client and no threads: the next
call starts only when the previous one has returned.  Inputs come only
from the workload seed.  The untraced run reports the end-to-end metrics;
the traced run wraps every call into pgblrc in a span and reports the
per-layer metrics.

End-to-end metrics are the same five names on every workload:
``setup_s``, ``peak_rss_mb`` and three role metrics, ``primary_ms``,
``secondary_ms`` and ``tertiary_ms``, whose meaning per workload is set
out in ``metrics.json``.  The per-workload quantities they carry are also
reported under their descriptive names (``analyze_large_s`` and so on) in
the run's metadata.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

import pgblrc
from pgblrc import algebra, cli, geometry

import checks
from checks import CheckFailed, require
import speed

SETUP_REPS = 7          # set-up repetitions; setup_s is their median
MIN_ROUNDS = 3          # a timed loop runs at least this many rounds
# A round of a CLI workload takes 10-40 s of processes; two keep a run
# within the time the full set of benchmark runs may take.
CLI_ROUNDS = 2
SMALL_PASSES_PER_ROUND = 2  # passes over the small instances per round of a CLI workload
STARTUPS_PER_ROUND = 5  # `pgblrc --version` processes per round of a CLI workload
PROCESS_TIMEOUT_S = 150

# (name, constructor, parameter, take the dual)
LADDER = (
    ("grid8", "grid", 8, False),
    ("symplectic4", "symplectic_gq", 4, False),
    ("elliptic3", "elliptic_quadric_gq", 3, False),
    ("hyperoval8", "hyperoval_gq", 8, False),
    ("hyperoval16", "hyperoval_gq", 16, False),
)
EXHAUSTIVE = (
    ("dual_elliptic2", "elliptic_quadric_gq", 2, True),
    ("symplectic3", "symplectic_gq", 3, False),
    ("grid4", "grid", 4, False),
)
SIM_INSTANCES = (
    ("hyperoval8", "hyperoval_gq", 8, False),
    ("symplectic4", "symplectic_gq", 4, False),
    ("grid8", "grid", 8, False),
)
# (call, instance, keyword arguments, units of work per call)
SIM_CALLS = (
    ("iid_large", "hyperoval8", {"model": "iid", "p": 0.1, "trials": 200}, 200),
    ("iid_small", "symplectic4", {"model": "iid", "p": 0.1, "trials": 1000}, 1000),
    ("adversarial", "grid8", {"model": "adversarial", "u": 2}, 3240),
)
DEGRADED_INSTANCE = ("hyperoval8", "hyperoval_gq", 8, False)
DEGRADED_P = 0.2
DEGRADED_BATCH = 128  # steps between two host-speed measurements
SIM_SEED_STREAM = 100


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator number ``stream`` of one workload seed."""
    return np.random.default_rng([seed, stream])


class Run:
    """State and results of one benchmark run."""

    def __init__(self, *, workload: str, seed: int, seconds: int, tracer,
                 root: Path, scratch: Path, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.root = root
        self.scratch = scratch
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, int] = {}
        self.detail: dict[str, float] = {}
        self.uses_processes = False
        self.cpu = speed.pin_to_one_cpu()
        self.speed = speed.Speedometer()

    def scaled(self, wall_s: float, during: list[float] = ()) -> float:
        """``wall_s`` of the operation just timed, corrected for host speed."""
        return wall_s * self.speed.factor(during)

    def rng(self, stream: int) -> np.random.Generator:
        return stream_rng(self.seed, stream)

    def metric(self, name: str, values, unit: str) -> None:
        """Report the median of ``values`` and how many there were; a failed
        operation leaves a NaN sample, which is skipped."""
        values = [v for v in values if math.isfinite(v)]
        if values:
            self.metrics[name] = (statistics.median(values), unit)
            self.samples[name] = len(values)

    @contextmanager
    def op(self, what: str):
        """Count one operation; a failed check or an unexpected raise fails it."""
        self.attempted += 1
        try:
            yield
        except CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
        except Exception as exc:  # the program raised where it should not
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.uses_processes else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# shared steps

def construct(run: Run, spec) -> geometry.IncidenceStructure:
    name, ctor, param, is_dual = spec
    with run.tracer.span("geometry.construct", op=f"setup:{name}"):
        inc = getattr(geometry, ctor)(param)
        if is_dual:
            inc = geometry.dual(inc)
    return inc


def relabelled_lines(inc: geometry.IncidenceStructure, perm: list[int]) -> list[tuple[int, ...]]:
    """The lines of ``inc`` with point p renamed perm[p], sorted."""
    return sorted(tuple(sorted(perm[p] for p in line)) for line in inc.lines)


def incidence_text(num_points: int, lines: list[tuple[int, ...]], label: str) -> str:
    """An incidence file in the format ``geometry.load`` reads."""
    out = [f"# label: {label}", f"{num_points} {len(lines)}"]
    out.extend(" ".join(map(str, line)) for line in lines)
    return "\n".join(out) + "\n"


def import_pgblrc_afresh() -> None:
    """Import pgblrc again, as a new process would, then put the modules
    already in use back.  numpy stays loaded: it is not part of pgblrc."""
    def ours(name: str) -> bool:
        return name == "pgblrc" or name.startswith("pgblrc.")
    in_use = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in in_use:
        del sys.modules[name]
    try:
        importlib.import_module("pgblrc")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(in_use)


def timed_setup(run: Run, build):
    """Import pgblrc and run ``build``, SETUP_REPS times; setup_s is the
    median wall time of a repetition."""
    times = []
    state = None
    for _ in range(SETUP_REPS):
        gc.collect()  # each repetition starts from the same collector state
        with run.tracer.round("setup"):
            start = time.perf_counter()
            import_pgblrc_afresh()
            state = build()
            times.append(run.scaled(time.perf_counter() - start))
    run.metric("setup_s", times, "s")
    # Keep the set-up's long-lived objects out of the collections that the
    # timed calls trigger, so the benchmark's own heap does not add to them.
    gc.collect()
    gc.freeze()
    return state


def write_inputs(run: Run, specs) -> dict[str, tuple[Path, list]]:
    """Construct each instance, relabel its points by a seeded permutation
    and write the incidence file the program will read.  Returns each
    instance's file and relabelled lines, which the output checks use."""
    inputs = {}
    for index, spec in enumerate(specs):
        inc = construct(run, spec)
        perm = run.rng(index).permutation(inc.num_points).tolist()
        lines = relabelled_lines(inc, perm)
        path = run.scratch / f"{spec[0]}.txt"
        path.write_text(incidence_text(inc.num_points, lines, spec[0]), encoding="utf-8")
        inputs[spec[0]] = (path, lines)
    return inputs


def run_cli(run: Run, args: list[str], name: str) -> tuple[float, list[float], str]:
    """One ``pgblrc`` process; returns its wall time, the kernel times
    sampled while it ran, and its standard output."""
    run.uses_processes = True
    out_path = run.scratch / f"{name}.out"
    err_path = run.scratch / f"{name}.err"
    env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
    samples: list[float] = []
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pgblrc.cli", *args],
                                stdout=out, stderr=err, env=env, cwd=run.root)
        try:
            # The process descriptor turns readable at exit, so the wait ends
            # then, not at a polling step.  Between waits the kernel samples
            # the CPU the child shares with us; the child does not run
            # meanwhile, so that time is taken off its wall time.
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = select.poll()
                exited.register(pidfd, select.POLLIN)
                while not exited.poll(1000 * speed.SAMPLE_EVERY_S):
                    if time.perf_counter() - start > PROCESS_TIMEOUT_S:
                        raise CheckFailed(f"no exit within {PROCESS_TIMEOUT_S} s")
                    samples.append(speed.kernel_once())
                wall = time.perf_counter() - start - sum(samples)
            finally:
                os.close(pidfd)
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
    if code != 0:
        tail = err_path.read_text(encoding="utf-8")[-300:]
        raise CheckFailed(f"exit code {code}: {tail.strip()}")
    return wall, samples, out_path.read_text(encoding="utf-8")


def startup_rounds(run: Run) -> None:
    """The traced run's probe of the CLI's fixed cost, on every workload."""
    for _ in range(MIN_ROUNDS):
        with run.tracer.round("startup"):
            cli_startup(run)


def cli_startup(run: Run) -> float:
    with run.op("pgblrc --version"):
        with run.tracer.span("cli.startup", op="startup"):
            wall, samples, text = run_cli(run, ["--version"], "version")
        require(text.strip() == pgblrc.__version__,
                f"--version printed {text.strip()!r}, not {pgblrc.__version__!r}")
        return run.scaled(wall, samples)
    return float("nan")


def analyze_args(path: Path, mode: str) -> list[str]:
    args = ["analyze", "--format", "json", "--file", str(path)]
    return args + ["--exhaustive"] if mode == "exhaustive" else args


# ----------------------------------------------------------------------
# in-process ``pgblrc analyze`` with a span around each public call, for
# the traced run

class _TracedModule:
    """Stands in for one pgblrc module inside ``cli``: the functions in
    ``spans`` run inside a span and keep their last result in ``returned``;
    every other attribute passes through."""

    def __init__(self, module, tracer, spans: dict[str, str], returned: dict) -> None:
        self._module = module
        for attr, span in spans.items():
            setattr(self, attr, _in_span(tracer, span, getattr(module, attr), attr, returned))

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _in_span(tracer, span: str, fn, attr: str, returned: dict):
    def traced(*args, **kwargs):
        with tracer.span(span):
            returned[attr] = fn(*args, **kwargs)
        return returned[attr]
    return traced


@contextmanager
def traced_cli(tracer, mode: str):
    """Swap the pgblrc modules that ``cli`` calls for traced stand-ins;
    yields the dict of the last value each traced function returned."""
    returned: dict = {}
    swaps = {
        "geometry": {"load": "geometry.load", "validate_pg": "geometry.validate"},
        "code_mod": {"build_code": "code.build"},
        "repair": {"repair_profile": f"repair.profile_{mode}"},
        "bounds": {name: "cli.bounds"
                   for name in ("vartheta", "rank_bounds", "rate_lower", "rate_upper")},
    }
    saved = {name: getattr(cli, name) for name in swaps}
    try:
        for name, spans in swaps.items():
            setattr(cli, name, _TracedModule(saved[name], tracer, spans, returned))
        yield returned
    finally:
        for name, module in saved.items():
            setattr(cli, name, module)


def replay_analyze(run: Run, path: Path, mode: str, name: str):
    """Run ``pgblrc analyze`` in process through ``cli.main``, as the
    process would, with one span around each public call it makes.  The
    rest of the call, ``cli.emit_s``, is argument parsing, building the
    payload, ``json.dumps`` and the write."""
    tr = run.tracer
    out_path = run.scratch / f"{name}.replay"
    with traced_cli(tr, mode) as returned, \
            open(out_path, "w", encoding="utf-8") as out, redirect_stdout(out):
        start = time.perf_counter()
        with tr.span("cli.analyze", op=name) as span_id:
            code = cli.main(analyze_args(path, mode))
        wall = time.perf_counter() - start
    require(code == 0, f"in-process pgblrc analyze returned {code}")
    tr.count("cli.emit_s", tr.self_seconds(span_id))
    text = out_path.read_text(encoding="utf-8")
    return returned["build_code"], returned["repair_profile"], text, wall


def layer_probes(run: Run, inc, built, name: str) -> None:
    """Time the algebra layer on this instance's incidence and parity matrices."""
    tr = run.tracer
    nmat = geometry.incidence_matrix(inc)
    with tr.span("algebra.independent_rows", op=f"probe:{name}"):
        keep = algebra.independent_row_indices(nmat)
    with tr.span("algebra.rref", op=f"probe:{name}"):
        algebra.rref2(built.parity_check)
    with tr.span("algebra.nullspace", op=f"probe:{name}"):
        algebra.nullspace2(built.parity_check)
    require(len(keep) == built.n - built.k, f"{name}: independent rows != n - k")


def hitting_set_probe(run: Run, profile, name: str) -> None:
    """Re-solve every symbol's hitting set from the profile's repair sets."""
    with run.tracer.span("repair.hitting_set", op=f"probe:{name}"):
        sizes = [len(pgblrc.minimum_hitting_set([frozenset(h) for h in sets]))
                 for sets in profile.repair_sets]
    require(tuple(sizes) == profile.per_symbol_delta,
            f"{name}: minimum hitting sets disagree with per-symbol delta")


# ----------------------------------------------------------------------
# analyze-ladder and exhaustive-verify: one pgblrc process per instance

def _cli_workload(run: Run, specs, mode: str, large: str, ref_key: str,
                  repeat_large: bool) -> None:
    inputs = timed_setup(run, lambda: write_inputs(run, specs))
    ref = run.reference[ref_key]
    if run.tracer.enabled:
        _cli_traced_passes(run, specs, inputs, mode, ref, large if not repeat_large else None)
        return

    def analyze(name: str) -> float:
        path, lines = inputs[name]
        with run.op(f"analyze {name}"):
            wall, samples, text = run_cli(run, analyze_args(path, mode), name)
            checks.check_analyze(text, ref[name], mode, lines)
            return run.scaled(wall, samples)
        return float("nan")

    larges, smalls, startups = [], [], []
    small_names = [spec[0] for spec in specs if spec[0] != large]
    start = time.perf_counter()
    while len(startups) < CLI_ROUNDS * STARTUPS_PER_ROUND or \
            time.perf_counter() - start < run.seconds:
        if repeat_large or not larges:
            larges.append(analyze(large))
        for _ in range(SMALL_PASSES_PER_ROUND):
            smalls.append(sum(analyze(name) for name in small_names))
        startups.extend(cli_startup(run) for _ in range(STARTUPS_PER_ROUND))
    run.metric("primary_ms", [1000 * x for x in larges], "ms")
    run.metric("secondary_ms", [1000 * x for x in smalls], "ms")
    run.metric("tertiary_ms", [1000 * x for x in startups], "ms")
    names = {"primary_ms": f"{ref_key}_s", "secondary_ms": f"{ref_key}_small_s",
             "tertiary_ms": "cli.startup_s"}
    if ref_key == "analyze":
        names.update(primary_ms="analyze_large_s", secondary_ms="analyze_ladder_s")
    for metric, name in names.items():
        if metric in run.metrics:
            run.detail[name] = run.metrics[metric][0] / 1000


def _cli_traced_passes(run: Run, specs, inputs, mode: str, ref: dict,
                       no_process: str | None) -> None:
    """Each instance as a process (for cli.residual_s) and as a traced
    in-process replay.  ``no_process`` skips the process of an instance
    whose process the untraced run already times, to bound the run's length."""
    tr = run.tracer
    start = time.perf_counter()
    passes = 0
    while passes < 1 or time.perf_counter() - start < run.seconds:
        passes += 1
        with tr.round("pass"):
            for spec in specs:
                name = spec[0]
                path, lines = inputs[name]
                process_wall = None
                if name != no_process:
                    with run.op(f"analyze {name} (process)"):
                        process_wall, _, text = run_cli(run, analyze_args(path, mode), name)
                        checks.check_analyze(text, ref[name], mode, lines)
                with run.op(f"analyze {name} (replay)"):
                    built, profile, text, wall = replay_analyze(run, path, mode, name)
                    checks.check_analyze(text, ref[name], mode, lines)
                    if process_wall is not None:
                        tr.count("cli.residual_s", process_wall - wall)
                    tr.count("cli.output_bytes", len(text.encode("utf-8")))
                    tr.count("repair.work_count", sum(profile.per_symbol_a))
                    if mode == "exhaustive":
                        tr.count("repair.dual_words_found", sum(profile.per_symbol_a))
                with run.op(f"probe {name}"):
                    layer_probes(run, built.geometry, built, name)
                    hitting_set_probe(run, profile, name)


def analyze_ladder(run: Run) -> None:
    # the n = 4096 rung takes tens of seconds, so it runs once per run
    _cli_workload(run, LADDER, "geometric", "hyperoval16", "analyze", repeat_large=False)


def exhaustive_verify(run: Run) -> None:
    _cli_workload(run, EXHAUSTIVE, "exhaustive", "dual_elliptic2", "exhaustive",
                  repeat_large=True)


# ----------------------------------------------------------------------
# in-process workloads: codes are built during set-up

def build_codes(run: Run, specs) -> dict:
    """Construct and build each code; the traced run also times the
    validation and algebra layers on the same instance."""
    tr = run.tracer
    out = {}
    for spec in specs:
        inc = construct(run, spec)
        if tr.enabled:
            with tr.span("geometry.validate", op=f"setup:{spec[0]}"):
                geometry.validate_pg(inc)
        with tr.span("code.build", op=f"setup:{spec[0]}"):
            out[spec[0]] = pgblrc.build_code(inc)
        if tr.enabled:
            layer_probes(run, inc, out[spec[0]], spec[0])
    return out


REPORT_FIELDS = ("model", "parameter", "seed", "cases", "coverage", "per_symbol_success",
                 "per_symbol_mean_retrieved", "overall_success", "all_symbols_success",
                 "mean_retrieved")


def report_digest(report) -> str:
    """SHA-256 of the report's schema-1 fields, so added fields do not count."""
    data = report.to_json_dict()
    text = json.dumps({key: data[key] for key in REPORT_FIELDS}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def simulation_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 63))


def simulate(run: Run) -> None:
    codes = timed_setup(run, lambda: build_codes(run, SIM_INSTANCES))
    tr = run.tracer
    recorded = run.reference["simulate"].get(str(run.seed))
    seeds = run.rng(SIM_SEED_STREAM)
    grid_code = codes["grid8"]
    adversarial = checks.availability_counts(
        checks.incidence_array(grid_code.geometry.lines, grid_code.n),
        grid_code.geometry.lines_through, checks.pair_masks(grid_code.n))
    per_unit: dict[str, list[float]] = {call: [] for call, *_ in SIM_CALLS}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < run.seconds:
        sim_seed = simulation_seed(seeds)
        with tr.round("pass"):
            for call, instance, kwargs, units in SIM_CALLS:
                code = codes[instance]
                gc.collect()
                with run.op(f"simulate {call} seed {sim_seed}"):
                    with tr.span("repair.simulate", op=call):
                        t0 = time.perf_counter()
                        report = pgblrc.simulate_availability(code, seed=sim_seed, **kwargs)
                        wall = time.perf_counter() - t0
                    tr.count("repair.work_count", report.cases)
                    per_unit[call].append(1e6 * run.scaled(wall) / units)  # ms per 1000 units
                    _check_simulation(report, code, kwargs, sim_seed, units, adversarial)
                    if recorded is not None and rounds == 0:
                        require(report_digest(report) == recorded[call],
                                f"report digest differs from the recorded one for seed {run.seed}")
        rounds += 1
    # A call that raised left no sample; a metric without samples is left out.
    for metric, call, name in (("primary_ms", "iid_large", "sim_trials_per_s"),
                               ("secondary_ms", "iid_small", "sim_small_trials_per_s"),
                               ("tertiary_ms", "adversarial", "sim_adversarial_cases_per_s")):
        run.metric(metric, per_unit[call], "ms")
        if metric in run.metrics:
            run.detail[name] = 1e6 / run.metrics[metric][0]


def _check_simulation(report, code, kwargs, sim_seed, units, adversarial) -> None:
    require(report.cases == units, f"{report.cases} cases, expected {units}")
    geo = code.geometry
    if kwargs["model"] == "iid":
        masks = checks.iid_masks(sim_seed, kwargs["trials"], code.n, kwargs["p"])
        succ, all_ok = checks.availability_counts(
            checks.incidence_array(geo.lines, code.n), geo.lines_through, masks)
        checks.check_report(report, model="iid", parameter=kwargs["p"], seed=sim_seed,
                            coverage="sampled", succ=succ, all_ok=all_ok,
                            helpers_per_line=code.pg.s)
    else:
        succ, all_ok = adversarial
        checks.check_report(report, model="adversarial", parameter=kwargs["u"],
                            seed=sim_seed, coverage="exhaustive", succ=succ,
                            all_ok=all_ok, helpers_per_line=code.pg.s)


def degraded_read(run: Run) -> None:
    codes = timed_setup(run, lambda: build_codes(run, (DEGRADED_INSTANCE,)))
    code = codes[DEGRADED_INSTANCE[0]]
    geo = code.geometry
    incidence = checks.incidence_array(geo.lines, code.n)
    info_set = np.array(code.info_set)
    rng = run.rng(200)
    encode_s: list[float] = []
    repair_s: list[float] = []
    batch_encode: list[float] = []
    batch_repair: list[float] = []
    scanned: list[int] = []
    unrepairable = 0
    start = time.perf_counter()
    step = 0
    while step < MIN_ROUNDS or time.perf_counter() - start < run.seconds:
        message = rng.integers(0, 2, code.k, dtype=np.uint8)
        i = int(rng.integers(code.n))
        unavailable = np.flatnonzero(rng.random(code.n) < DEGRADED_P).tolist()
        with run.tracer.round("pass"):
            repaired = _degraded_step(run, code, step, message, i, unavailable, incidence,
                                      info_set, batch_encode, batch_repair, scanned)
        unrepairable += repaired is False
        step += 1
        if step % DEGRADED_BATCH == 0:
            factor = run.speed.factor()
            encode_s.extend(x * factor for x in batch_encode)
            repair_s.extend(x * factor for x in batch_repair)
            batch_encode.clear()
            batch_repair.clear()
    factor = run.speed.factor()
    encode_s.extend(x * factor for x in batch_encode)
    repair_s.extend(x * factor for x in batch_repair)
    # A call that raised left no sample; a metric without samples is left out.
    run.metric("primary_ms", [1e3 * x for x in repair_s], "ms")
    if len(repair_s) >= 2:
        p99 = statistics.quantiles(repair_s, n=100)[98]  # the 99th of 1..99
        run.metric("secondary_ms", [1e3 * p99], "ms")
        run.samples["secondary_ms"] = len(repair_s)
    run.metric("tertiary_ms", [1e6 * x for x in encode_s], "ms")  # ms per 1000 words
    if encode_s:
        run.detail["encode_words_per_s"] = len(encode_s) / sum(encode_s)
    if "primary_ms" in run.metrics:
        run.detail["repair_p50_us"] = 1e3 * run.metrics["primary_ms"][0]
    if "secondary_ms" in run.metrics:
        run.detail["repair_p99_us"] = 1e3 * run.metrics["secondary_ms"][0]
    run.detail["repair_samples"] = len(repair_s)
    if scanned:
        run.detail["repair.lines_scanned"] = statistics.fmean(scanned)
        run.detail["repair.unrepairable_ratio"] = unrepairable / len(scanned)


def _degraded_step(run: Run, code, step: int, message, i: int, unavailable: list[int],
                   incidence, info_set, encode_s: list[float], repair_s: list[float],
                   scanned: list[int]) -> bool | None:
    """One write (encode) and one read (repair of symbol i), both checked.
    Returns whether the symbol was repaired, None when no read was made
    or the read raised."""
    tr = run.tracer
    geo = code.geometry
    message_list = message.tolist()
    word = None
    with run.op(f"encode step {step}"):
        with tr.span("code.encode", op=f"step:{step}"):
            t0 = time.perf_counter()
            word = pgblrc.encode(code, message_list)
            t1 = time.perf_counter()
        encode_s.append(t1 - t0)
        checks.check_word(word, message, info_set, incidence)
    if word is None:  # the write raised; there is nothing to read
        return None
    received = word.tolist()
    received[i] = None
    blocked = set(unavailable) - {i}
    want_line, lines_seen = checks.first_open_line(geo.lines, geo.lines_through, i, blocked)
    repaired = None
    with run.op(f"repair step {step}"):
        outcome = None
        with tr.span("repair.repair_symbol", op=f"step:{step}"):
            t0 = time.perf_counter()
            try:
                outcome = pgblrc.repair_symbol(code, received, i, unavailable=unavailable)
            except pgblrc.NotLocallyRepairableError:
                pass
            t1 = time.perf_counter()
        repair_s.append(t1 - t0)
        scanned.append(lines_seen)
        tr.count("repair.work_count", lines_seen)
        if outcome is None:
            require(want_line is None,
                    f"symbol {i} reported unrepairable but line {want_line} is open")
        else:
            require(want_line is not None, f"symbol {i} repaired though every line is blocked")
            require(outcome.vector.line == want_line,
                    f"symbol {i} repaired by line {outcome.vector.line}, expected {want_line}")
            require(outcome.value == int(word[i]), f"symbol {i}: repaired bit is wrong")
        repaired = outcome is not None
    return repaired


WORKLOADS = {
    "analyze-ladder": analyze_ladder,
    "exhaustive-verify": exhaustive_verify,
    "simulate": simulate,
    "degraded-read": degraded_read,
}
