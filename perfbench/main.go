// Command perfbench is the repository benchmark: it runs one named workload
// from a workload seed for a fixed wall-clock window, checks the program's
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end set (see BENCHMARK.json at the
// repository root); with -trace 1 a separate traced run reports the
// per-layer set, recording spans around every call into the program.
//
// Run it through run.sh from the repository root, which builds this module
// first:
//
//	bash perfbench/run.sh --workload opportunity-mc --seed 1 --seconds 10 --trace 0
//
// The workloads, their shapes and the reasons for them are documented in
// README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cyclesteal/distrib"
)

// workerEnv marks a process started as a distrib worker (the fleet-study
// workload's ExecStarter re-invokes this binary with it set).
const workerEnv = "PERFBENCH_DISTRIB_WORKER"

func main() {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(serveWorker())
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// serveWorker speaks the distrib wire conversation on stdin/stdout.
func serveWorker() int {
	if err := distrib.Serve(context.Background(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// options is one benchmark invocation.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	dir        string // scratch directory for temp files, spans and profiles
	cpuprofile string
	memprofile string
	// smoke shrinks every workload shape so a run takes well under a
	// second: the self-tests use it to check that every metric is printed.
	smoke bool
	// breakCheck deliberately breaks the workload's correctness check, so
	// the self-tests can prove a failing check fails the run.
	breakCheck bool
}

// window is the measured duration.
func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	shape string
	why   string
	run   func(o options, r *report) error
}

func workloads() []workload {
	return []workload{
		{"opportunity-mc",
			"E8 cell U=100c, p=2, c=25 ticks; 6 schedulers x {Poisson mean U/3, Random p=0.7}; op = 512-trial mc.RunState study, 2 workers, warm sim.Buffers + sched.Memo per worker",
			"one-opportunity trials on mc: per-trial seeding and dispatch dominate; farm, fleet and distrib are off the path", runOpportunityMC},
		{"fleet-study",
			"64-station office/laptop/overnight fleet, setup 5, Sharded, 4 opportunities, 20k exp(12) tasks; op = 64-trial fleet.Study via distrib.Coordinator, 2 ExecStarter workers at GOMAXPROCS=1, 4 fleet seeds",
			"a 64-station replication study through distrib worker processes: farm, station, sim and sched do the work", runFleetStudy},
		{"resident-service",
			"fleet.Service 64 stations / 8 shards, Workers 1, churn leave 0.02 join 0.05 min 16, WAL file written per round (fsync timed in a paused pass), Start; 2 tenants open loop, Poisson 550 jobs/s, exp(500)-task jobs of exp(30) tasks; 10 sessions",
			"an open-loop multi-tenant fleet.Service with churn and a WAL, recovered afterwards; mc and distrib bypassed", runResidentService},
		{"fleet-run",
			"fleet.Run on the live engine, the fleet-study fleet and job size, Sharded, Workers 2; one closed-loop client over 16 (fleet seed, job) pairs",
			"a closed-loop client calling fleet.Run on the live engine; mc, distrib and the service bypassed", runFleetRun},
	}
}

// realMain parses args, runs one workload and prints the report; it returns
// the process exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for temp files, spans and profiles")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the measured window to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the measured window to this file")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny shapes for self-tests")
	fs.BoolVar(&o.breakCheck, "break-check", false, "deliberately break the correctness check (self-tests)")
	capacity := fs.Bool("capacity", false, "measure the resident-service closed-loop capacity in jobs/s and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if !(o.seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be > 0, got %g\n", o.seconds)
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == o.workload {
			c := c
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	r := newReport(o)
	r.tmp = tmp
	if *capacity {
		rate, err := measureCapacity(o, r)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "resident-service closed-loop capacity = %.1f jobs/s\n", rate)
		return 0
	}
	r.notef("workload %s, seed %d, window %gs, trace %v: %s", w.name, o.seed, o.seconds, o.trace, w.why)
	r.notef("shape: %s", w.shape)
	runErr := w.run(o, r)
	if runErr != nil {
		r.fail(fmt.Sprintf("run aborted: %v", runErr))
	}
	if err := r.finish(); err != nil {
		r.fail(err.Error())
	}
	r.print(stdout)
	if !r.correct() {
		fmt.Fprintf(stderr, "perfbench: %s FAILED: %d of %d operations failed or were wrong\n", w.name, r.failed, r.attempted)
		for _, m := range r.failures {
			fmt.Fprintln(stderr, "  -", m)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects a run's metrics, operation counts and failures.
type report struct {
	opts      options
	tmp       string
	attempted int
	failed    int
	failures  []string // first few failure messages
	metrics   []metric
	notes     []string
	tr        *tracer // nil when tracing is off

	// Measured-window bookkeeping for the Go runtime metrics and profiles.
	windowStart time.Time
	windowEnd   time.Time
	rt0, rt1    runtimeSample
	profile     *os.File
}

func newReport(o options) *report {
	r := &report{opts: o}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation.
func (r *report) fail(msg string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, msg)
	}
}

// check counts one checked operation and records a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// set records a metric; setting a name twice keeps the last value.
func (r *report) set(name, unit string, value float64) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, unit, value}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, unit, value})
}

// startWindow marks the start of the measured window: it samples the Go
// runtime and starts the CPU profile when one was asked for.
func (r *report) startWindow() error {
	if r.opts.cpuprofile != "" {
		f, err := os.Create(r.opts.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpu profile: %w", err)
		}
		r.profile = f
	}
	r.rt0 = sampleRuntime()
	r.windowStart = time.Now()
	return nil
}

// endWindow marks the end of the measured window.
func (r *report) endWindow() error {
	r.windowEnd = time.Now()
	r.rt1 = sampleRuntime()
	if r.profile != nil {
		pprof.StopCPUProfile()
		err := r.profile.Close()
		r.profile = nil
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	if r.opts.memprofile != "" {
		f, err := os.Create(r.opts.memprofile)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return fmt.Errorf("heap profile: %w", werr)
		}
	}
	return nil
}

// finish adds the metrics every workload reports and writes the spans.
func (r *report) finish() error {
	if r.windowEnd.IsZero() {
		return nil // aborted before the window closed; nothing to add
	}
	r.set("max_rss_mb", "MB", float64(maxRSSKB())/1024)
	if !r.opts.trace {
		return nil
	}
	wall := r.windowEnd.Sub(r.windowStart).Seconds()
	r.set("go.gc_cpu_frac", "ratio", r.rt1.gcFrac(r.rt0))
	r.set("go.alloc_mb_per_s", "MB/s", float64(r.rt1.allocBytes-r.rt0.allocBytes)/(1<<20)/wall)
	if r.tr != nil {
		r.notes = append(r.notes, r.tr.selfTimes()...)
		dir := filepath.Join(r.opts.dir, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.opts.workload, r.opts.seed))
		if err := r.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.notef("spans: %d written to %s", r.tr.count(), path)
	}
	return nil
}

// print writes the human-readable lines and then the JSON result line.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "fail_frac = %g ratio (%d of %d operations)\n", frac, r.failed, r.attempted)
	want := endToEndNames
	if r.opts.trace {
		want = perLayerNames
	}
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.name] = m
	}
	out := map[string]map[string]any{}
	for _, name := range want {
		m, ok := got[name]
		if !ok {
			// A layer the workload bypasses did no work on it.
			m = metric{name: name, unit: unitOf(name), value: 0}
		}
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	// Every measured metric is also printed as a line, including those
	// outside the JSON set: op_ms_p99, trials_per_s, jobs_per_s,
	// recover_s, the traced end-to-end numbers and the ladder rungs.
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := got[n]
		fmt.Fprintf(w, "%s = %.6g %s\n", m.name, m.value, m.unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	fmt.Fprintln(w, string(line))
}
