"""Per-layer probe: times each module's public functions on fixed inputs.

The probe runs at the end of every traced run, the same on every workload,
so its numbers compare across workloads and commits.  Every timing is the
median over batches; a batch repeats a sub-millisecond call `reps` times and
its span carries that count.  Fresh-process timings (import, cli) are medians
over several processes (3 to 5).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from workloads import (SIZES, SYNTH_DT, SYNTH_LAMBDA, SYNTH_M, CheckFailed, expect,
                       readme_commands, run_command, smooth_pulse)

# Step counts of the two regimes: synth and the cli optimize use 200 steps,
# survey's pulses run to the thousands.
M_SHORT, M_LONG = 200, 2000

# Fixed synthesis tasks, timed to the README tolerance (time to solution).
PROBE_TASKS = ((1.1e6,), (-1.4e6, 2.0e6), (0.95e6, -1.6e6, 2.4e6))
PROBE_SPECTATORS = (1.1e6, -1.7e6, 2.6e6, -3.9e6)    # 15 members with the triplet

UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Probe:
    def __init__(self, tracer, root: str, workdir: str, size: str):
        self.tracer = tracer
        self.root = root
        self.workdir = workdir
        self.size = size
        self.small = size == "small"
        self.metrics = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def timed(self, name, fn, reps=1, batches=5):
        """Median seconds per call of fn over `batches` spans of `reps` calls."""
        if self.small:
            reps, batches = 1, 1
        per_call = []
        for _ in range(batches):
            self.attempted += 1
            start = time.perf_counter()
            with self.tracer.span(name, reps=reps):
                for _ in range(reps):
                    fn()
            per_call.append((time.perf_counter() - start) / reps)
        return statistics.median(per_call)

    def time_metric(self, metric, unit, name, fn, reps=1, batches=5):
        seconds = self.timed(name, fn, reps, batches)
        self.put(metric, seconds * UNITS[unit], unit)
        return seconds

    def fresh(self, name, argv, batches):
        """Median wall seconds of a fresh interpreter running argv."""
        def run():
            subprocess.run([sys.executable, *argv], check=True, timeout=120)
        return self.timed(name, run, 1, 1 if self.small else batches)

    def run(self):
        for section in (self.imports, self.config_and_fields, self.dynamics,
                        self.experiments, self.synthesis, self.pulse_io, self.cli):
            with self.tracer.span(f"bench.probe_{section.__name__}"):
                section()
        return self.metrics

    # ------------------------------------------------------------ sections

    def imports(self):
        self.put("import.python_s", self.fresh("import.python", ["-c", "pass"], 5), "s")
        self.put("import.spinmux_s",
                 self.fresh("import.spinmux", ["-c", "import spinmux"], 3), "s")

    def config_and_fields(self):
        import spinmux as smx

        path = smx.demo_config_path()
        self.time_metric("config_io.load_config_ms", "ms", "config_io.load_config",
                         lambda: smx.load_config(path), reps=20)
        cfg = smx.load_config(path)
        env, drive, sites = cfg.environment, cfg.drive, cfg.sites
        point = np.array([1.0e-6, 0.3e-6, 0.0])
        self.time_metric("fields.wire_field_us", "us", "fields.wire_field",
                         lambda: smx.wire_field(env.wire, drive.i_dc, point), reps=500)
        self.time_metric("fields.field_sample_us", "us", "fields.field_sample",
                         lambda: smx.field_sample(env, drive, sites[1]), reps=200)
        self.time_metric("fields.address_map_ms", "ms", "fields.address_map",
                         lambda: smx.address_map(env, drive, sites), reps=20)
        self.time_metric("fields.calibrate_wire_ms", "ms", "fields.calibrate_wire",
                         lambda: smx.calibrate_wire(env, 1.7e8, 2e-6, 0.15), reps=2)

    def dynamics(self):
        import spinmux as smx

        self.time_metric("dynamics.step_propagator_us", "us", "dynamics.step_propagator",
                         lambda: smx.step_propagator(1.3e6, 7.5e6, 0.5e6, 50e-9),
                         reps=500)
        rng = np.random.default_rng(0)
        for m, reps in ((M_SHORT, 5), (M_LONG, 1)):
            pulse = smooth_pulse(rng, m, 10e-6)
            i_amps, q_amps = pulse.amplitudes()
            self.time_metric(f"dynamics.evolve_ms.m{m}", "ms", "dynamics.evolve",
                             lambda: smx.evolve(pulse, 1.1e6), reps=reps)
            self.time_metric(f"dynamics.from_arrays_ms.m{m}", "ms",
                             "dynamics.from_arrays",
                             lambda: smx.PulseProgram.from_arrays(i_amps, q_amps, pulse.dt),
                             reps=4 * reps)

    def experiments(self):
        import spinmux as smx

        cfg = smx.load_config(smx.demo_config_path())
        env = cfg.environment
        n_points = 21 if self.small else 601
        durations = np.linspace(0.0, 300e-9, n_points)
        self.time_metric("experiments.simulate_rabi_ms", "ms", "experiments.simulate_rabi",
                         lambda: smx.simulate_rabi(7.5e6, 0.5e6, durations))
        self.time_metric("experiments.simulate_ramsey_ms", "ms",
                         "experiments.simulate_ramsey",
                         lambda: smx.simulate_ramsey(3e6, cfg.manifold, 1.7e-6, durations),
                         reps=20)
        scan = np.linspace(2.99e9, 3.01e9, 11 if self.small else 301)
        self.time_metric("experiments.simulate_odmr_s", "s", "experiments.simulate_odmr",
                         lambda: smx.simulate_odmr(env, cfg.drive, cfg.sites, 0.2e6, scan),
                         batches=1)
        # 2 transitions x 3 nuclear states per site
        self.put("experiments.odmr_points", scan.size * len(cfg.sites) * 6, "count")
        n = 4 if self.small else 30
        grid = [np.array([u, v, 0.0]) for u in np.linspace(-4e-6, 4e-6, n)
                for v in np.linspace(-2e-6, 2e-6, n)]
        self.time_metric("experiments.crosstalk_landscape_s", "s",
                         "experiments.crosstalk_landscape",
                         lambda: smx.crosstalk_landscape(env, 0.15, 1.5e-6, 10e6, grid),
                         batches=2)
        self.put("experiments.crosstalk_points", len(grid), "count")

    def synthesis(self):
        import spinmux as smx

        # One restart per task: optimize returns only the best restart's trace,
        # so with more restarts the timed work and the counted iterations
        # could come from different restarts.
        per_task, iterations = [], 0
        for detunings in PROBE_TASKS[:1] if self.small else PROBE_TASKS:
            scenario = smx.ControlScenario(idle_detunings=detunings)
            config = smx.OptimizerConfig(m=SYNTH_M, dt=SYNTH_DT, lam=SYNTH_LAMBDA,
                                         restarts=1, max_iters=100)
            result = []
            per_task.append(self.timed("synthesis.optimize",
                                       lambda: result.append(smx.optimize(scenario, config)),
                                       batches=1))
            iterations += len(result[0][1].rows) - 1
        self.put("synthesis.optimize_s", statistics.median(per_task), "s")
        self.put("synthesis.optimize_tasks", len(per_task), "count")
        self.put("synthesis.accepted_iters", iterations, "count")
        self.put("synthesis.iter_ms", 1e3 * sum(per_task) / max(iterations, 1), "ms")

        scenario = smx.ControlScenario(idle_detunings=PROBE_SPECTATORS)
        members = 3 * (1 + len(PROBE_SPECTATORS))
        rng = np.random.default_rng(1)
        for m, reps in ((M_SHORT, 5), (M_LONG, 1)):
            pulse = smooth_pulse(rng, m, 10e-6)
            cost_s = self.time_metric(f"synthesis.cost_ms.m{m}", "ms", "synthesis.cost",
                                      lambda: smx.cost(pulse, scenario, SYNTH_LAMBDA),
                                      reps=reps)
            grad_s = self.time_metric(f"synthesis.gradient_ms.m{m}", "ms",
                                      "synthesis.gradient",
                                      lambda: smx.gradient(pulse, scenario, SYNTH_LAMBDA),
                                      reps=reps)
            self.put(f"synthesis.cost_member_steps_per_s.m{m}", members * m / cost_s, "1/s")
            self.put(f"synthesis.gradient_member_steps_per_s.m{m}",
                     members * m / grad_s, "1/s")
            # peak bytes of the arrays one gradient call allocates (tracemalloc):
            # computed from array sizes, not measured memory traffic
            tracemalloc.start()
            smx.gradient(pulse, scenario, SYNTH_LAMBDA)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.put(f"synthesis.gradient_bytes_computed.m{m}", peak, "B")
        # a 3 x 3 sweep of the long (M_LONG) pulse, as survey runs them
        grid = ([-0.1e6, 0.0, 0.1e6], [0.95, 1.0, 1.05])
        sweep_s = self.timed("synthesis.sensitivity_sweep",
                             lambda: smx.sensitivity_sweep(pulse, scenario, *grid),
                             batches=3)
        self.put("synthesis.sweep_point_ms", 1e3 * sweep_s / 9, "ms")

    def pulse_io(self):
        import spinmux as smx

        rng = np.random.default_rng(2)
        for m, reps in ((M_SHORT, 10), (M_LONG, 2)):
            pulse = smooth_pulse(rng, m, 10e-6)
            path = os.path.join(self.workdir, f"probe_pulse_m{m}.csv")
            self.time_metric(f"pulse_io.write_pulse_ms.m{m}", "ms", "pulse_io.write_pulse",
                             lambda: smx.write_pulse(path, pulse), reps=reps)
            self.time_metric(f"pulse_io.read_pulse_ms.m{m}", "ms", "pulse_io.read_pulse",
                             lambda: smx.read_pulse(path), reps=reps)

    def cli(self):
        from spinmux.cli import main

        commands = readme_commands(0, SIZES[self.size], self.root, self.workdir)
        # fresh processes first, then the same argv through cli.main in this
        # process; the difference is interpreter start plus import.  Each
        # command runs 3 times, in workflow order, so later commands always
        # read the pulse that optimize wrote.
        for suffix, call in (("", lambda argv: run_command(argv)[0]), ("_inproc", main)):
            samples = {name: [] for name, _, _ in commands}
            for _ in range(1 if self.small else 3):
                for name, argv, check in commands:
                    codes = []
                    samples[name].append(self.timed(
                        f"cli.{name}{suffix}", lambda: codes.append(call(argv)), batches=1))
                    self.check_command(name, codes[0], check)
            for name, seconds in samples.items():
                self.put(f"cli.{name}{suffix}_s", statistics.median(seconds), "s")

    def check_command(self, name, code, check):
        try:
            expect(code == 0, f"{name} exited {code}")
            check()
        except CheckFailed as exc:
            print(f"probe check failed: {exc}", file=sys.stderr)
            self.failed += 1
