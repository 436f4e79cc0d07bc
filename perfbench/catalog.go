package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one entry of the metric catalog BENCHMARK.json publishes.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is the gated set every untraced run prints. An "op" is the
// workload's request: a 512-trial study (opportunity-mc), a 64-trial study
// through worker processes (fleet-study), a submitted job
// (resident-service) or a fleet.Run call (fleet-run).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer is the set every traced run prints; a layer the workload
// bypasses reads 0.
var perLayer = []metricSpec{
	// mc (opportunity-mc)
	{"mc.trial_ns", "ns", "lower"},
	{"mc.self_ns", "ns", "lower"},
	{"mc.alloc_bytes_per_trial", "B", "lower"},
	{"mc.merge_us", "us", "lower"},
	{"mc.parallel_eff", "ratio", "higher"},
	// sim (opportunity-mc)
	{"sim.run_ns", "ns", "lower"},
	{"sim.periods_per_opp", "count", "lower"},
	{"sim.work_frac", "ratio", "higher"},
	{"sim.setup_frac", "ratio", "lower"},
	{"sim.killed_frac", "ratio", "lower"},
	{"sim.idle_frac", "ratio", "lower"},
	// sched (opportunity-mc, fleet-study)
	{"sched.episode_ns", "ns", "lower"},
	{"sched.memo_hit_frac", "ratio", "higher"},
	// station (fleet-study)
	{"station.sample_ns", "ns", "lower"},
	// farm (fleet-study, fleet-run)
	{"farm.round_us", "us", "lower"},
	{"farm.rounds_per_trial", "count", "lower"},
	{"farm.steals_per_trial", "count", "lower"},
	{"farm.idle_frac", "ratio", "lower"},
	{"farm.core_trial_ms", "ms", "lower"},
	{"farm.trial_ms", "ms", "lower"},
	{"farm.live_run_ms", "ms", "lower"},
	{"farm.det_run_ms", "ms", "lower"},
	{"farm.steals_per_job", "count", "lower"},
	{"farm.imbalance", "ratio", "lower"},
	// fleet (fleet-study)
	{"fleet.trial_ms", "ms", "lower"},
	{"fleet.study_trial_ms", "ms", "lower"},
	{"fleet.merge_ms", "ms", "lower"},
	// distrib (fleet-study)
	{"distrib.inproc_trial_ms", "ms", "lower"},
	{"distrib.exec_trial_ms", "ms", "lower"},
	{"distrib.spawn_ms", "ms", "lower"},
	{"distrib.first_shard_ms", "ms", "lower"},
	{"distrib.bytes_out", "B", "lower"},
	{"distrib.bytes_in", "B", "lower"},
	{"distrib.frames", "count", "lower"},
	{"distrib.redeals", "count", "lower"},
	{"ladder.gap_frac", "ratio", "lower"},
	// fleet service and WAL (resident-service)
	{"fleet.service.submit_us_p50", "us", "lower"},
	{"fleet.service.submit_us_p99", "us", "lower"},
	{"fleet.service.reject_frac", "ratio", "lower"},
	{"fleet.service.rounds_per_s", "1/s", "higher"},
	{"fleet.service.rounds", "count", "lower"},
	{"fleet.service.job_rounds_p50", "count", "lower"},
	{"fleet.service.steals_per_job", "count", "lower"},
	{"fleet.service.recover_ms", "ms", "lower"},
	{"fleet.wal.write_us", "us", "lower"},
	{"fleet.wal.sync_us_p50", "us", "lower"},
	{"fleet.wal.sync_us_p99", "us", "lower"},
	{"fleet.wal.sync_busy_frac", "ratio", "lower"},
	{"fleet.wal.bytes_per_job", "B", "lower"},
	{"fleet.wal.read_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	// Go runtime (all workloads)
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_mb_per_s", "MB/s", "lower"},
}

var (
	endToEndNames = names(endToEnd)
	perLayerNames = names(perLayer)
)

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// unitOf is a catalog metric's unit.
func unitOf(name string) string {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range set {
			if s.name == name {
				return s.unit
			}
		}
	}
	return ""
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and the last repetition's product is what the window uses.
const setupReps = 9

// measureSetup runs build setupReps times (once when smoke) and records the
// median duration as setup_s.
func measureSetup[T any](r *report, build func() (T, error)) (T, error) {
	reps := setupReps
	if r.opts.smoke {
		reps = 1
	}
	var out T
	var times []float64
	for i := 0; i < reps; i++ {
		// Collect the previous repetitions' garbage first, so no set-up
		// pays for another's.
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	r.set("setup_s", "s", median(times))
	return out, nil
}

// reportOps records the end-to-end throughput and latency metrics. lat
// holds per-op latencies in milliseconds and done the matching completion
// times. The window is cut into equal slices — one a second, or fewer so
// that each holds about fifty ops — and each metric is the median over the
// slices of its per-slice value (see setOps), so a burst of outside load
// on the shared machine moves the result less than it would move a
// whole-window figure.
func reportOps(r *report, lat []float64, done []time.Time, unitName string) {
	wall := r.windowEnd.Sub(r.windowStart)
	n := max(1, min(int(wall/time.Second), len(lat)/50))
	width := wall / time.Duration(n)
	slices := make([][]float64, n)
	for i, t := range done {
		k := min(max(int(t.Sub(r.windowStart)/width), 0), n-1)
		slices[k] = append(slices[k], lat[i])
	}
	rates := make([]float64, n)
	for k, s := range slices {
		rates[k] = float64(len(s)) / width.Seconds()
	}
	setOps(r, rates, slices, lat)
	r.notef("%d %s in %.3fs over %d slices; whole-window p99 has %d samples beyond it", len(lat), unitName, wall.Seconds(), n, len(lat)/100)
}

// jobAliases prints the op latencies under their job names on the
// workloads whose op is a job.
func jobAliases(r *report) {
	for _, m := range r.metrics {
		if name, ok := strings.CutPrefix(m.name, "op_ms_"); ok {
			r.set("job_ms_"+name, m.unit, m.value)
		}
	}
}

// setOps sets ops_per_s, op_ms_p50 and op_ms_p90 to the medians over the
// groups (time slices or independent sessions) of each group's throughput,
// median latency and 90th percentile latency; groups with fewer than ten
// ops give no percentiles. The gated tail is p90: with one to a few
// thousand ops a run, a whole-window p99 rests on 10 to 40 samples and
// spreads from run to run by more than any useful bound, so op_ms_p99 over
// all ops is printed beside the gated set instead.
func setOps(r *report, rates []float64, groups [][]float64, all []float64) {
	prefix := ""
	if r.opts.trace {
		// Traced end-to-end numbers are printed beside the per-layer set;
		// their difference from an untraced run is the tracing overhead.
		prefix = "traced."
	}
	var p50, p90 []float64
	for _, g := range groups {
		if len(g) >= 10 {
			p50 = append(p50, median(g))
			p90 = append(p90, percentile(g, 0.90))
		}
	}
	if len(p50) == 0 {
		// Too few ops for per-group percentiles (smoke runs): pool them.
		p50, p90 = []float64{median(all)}, []float64{percentile(all, 0.90)}
	}
	r.set(prefix+"ops_per_s", "1/s", median(rates))
	r.set(prefix+"op_ms_p50", "ms", median(p50))
	r.set(prefix+"op_ms_p90", "ms", median(p90))
	r.set(prefix+"op_ms_p99", "ms", percentile(all, 0.99))
}
