package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the fleet-study worker process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(serveWorker())
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smoke runs one tiny workload and returns its exit code, its JSON result
// and the names of the metrics it measured (the "name = value unit" lines).
func smoke(t *testing.T, args ...string) (int, result, map[string]bool) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-smoke", "-seconds", "0.3", "-seed", "7", "-dir", t.TempDir()}, args...)
	code := realMain(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	measured := map[string]bool{}
	for _, l := range lines[:len(lines)-1] {
		if name, _, ok := strings.Cut(l, " = "); ok && !strings.HasPrefix(l, "#") {
			measured[name] = true
		}
	}
	return code, res, measured
}

// ownedPerLayer lists the per-layer metrics each workload measures; the
// rest of the traced set reads 0 on it.
var ownedPerLayer = map[string][]string{
	"opportunity-mc": {"mc.trial_ns", "mc.self_ns", "mc.alloc_bytes_per_trial", "mc.merge_us", "mc.parallel_eff",
		"sim.run_ns", "sim.periods_per_opp", "sim.work_frac", "sim.setup_frac", "sim.killed_frac", "sim.idle_frac",
		"sched.episode_ns", "sched.memo_hit_frac", "go.gc_cpu_frac", "go.alloc_mb_per_s"},
	"fleet-study": {"sched.episode_ns", "sched.memo_hit_frac", "station.sample_ns", "farm.round_us",
		"farm.rounds_per_trial", "farm.steals_per_trial", "farm.idle_frac", "farm.core_trial_ms", "farm.trial_ms",
		"fleet.trial_ms", "fleet.study_trial_ms", "fleet.merge_ms", "distrib.inproc_trial_ms", "distrib.exec_trial_ms",
		"distrib.spawn_ms", "distrib.first_shard_ms", "distrib.bytes_out", "distrib.bytes_in", "distrib.frames",
		"distrib.redeals", "ladder.gap_frac", "go.gc_cpu_frac", "go.alloc_mb_per_s"},
	"resident-service": {"fleet.service.submit_us_p50", "fleet.service.submit_us_p99", "fleet.service.reject_frac",
		"fleet.service.rounds_per_s", "fleet.service.rounds", "fleet.service.job_rounds_p50", "fleet.service.steals_per_job",
		"fleet.service.recover_ms", "fleet.wal.write_us", "fleet.wal.sync_us_p50", "fleet.wal.sync_us_p99",
		"fleet.wal.sync_busy_frac", "fleet.wal.bytes_per_job", "fleet.wal.read_ms", "recover_s", "loadgen.late_ms_p99",
		"go.gc_cpu_frac", "go.alloc_mb_per_s"},
	"fleet-run": {"farm.live_run_ms", "farm.det_run_ms", "farm.steals_per_job", "farm.imbalance", "farm.idle_frac",
		"go.gc_cpu_frac", "go.alloc_mb_per_s"},
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			code, res, _ := smoke(t, "-workload", w.name, "-trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd)
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			code, res, measured := smoke(t, "-workload", w.name, "-trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer)
			for _, name := range ownedPerLayer[w.name] {
				if !measured[name] {
					t.Errorf("traced run did not measure %s", name)
				}
			}
		})
	}
}

// TestBrokenCheck proves a failing correctness check fails the run: the
// failures count toward fail_frac and the exit code is non-zero.
func TestBrokenCheck(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			code, res, _ := smoke(t, "-workload", w.name, "-trace", "0", "-break-check")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("broken check: exit %d, correct %v, %d of %d failed; want a failing run", code, res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func checkMetrics(t *testing.T, res result, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// workloads and metric catalog this program implements.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program has %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, program has %+v", i, g, m)
			}
		}
	}
}
