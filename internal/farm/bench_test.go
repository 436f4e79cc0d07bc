package farm

// BenchmarkFarm* quantify the fleet-scaling path: the end-to-end round
// engine on a shared job, its two-tier topology variant, and the two-level
// Replicate engine. CI runs each once per push as a compile-and-execute smoke
// and records ns/op per commit in the BENCH_<sha>.json artifact.

import (
	"context"
	"testing"

	"cyclesteal/internal/mc"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

func benchFleet(n int) Farm {
	stations := make([]station.Workstation, n)
	for i := range stations {
		stations[i] = station.Workstation{ID: i, Owner: station.Office{MeanIdle: 2000, MaxP: 2}, Setup: 10}
	}
	return Farm{Stations: stations, OpportunitiesPerStation: 8}
}

// BenchmarkFarmRunDeterministic is the batch round engine on one shared
// job: 64 stations over the auto-sharded groups, 20k tasks.
func BenchmarkFarmRunDeterministic(b *testing.B) {
	f := benchFleet(64)
	job := Job{Tasks: task.Uniform(20000, 5, 50, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, int64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.TasksCompleted == 0 {
			b.Fatal("no work done")
		}
	}
}

// BenchmarkFarmAddTasks is the serial deal a batch run pays before its
// first round: 20k exp(12)-tick tasks into a fresh 64-group Core (building
// the Core is not timed).
func BenchmarkFarmAddTasks(b *testing.B) {
	f := benchFleet(64)
	tasks := task.Exponential(20000, 12, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core := f.NewCore(equalizedFactory, int64(i), 64, 64, false)
		b.StartTimer()
		core.AddTasks(tasks)
	}
}

// BenchmarkFarmTopologyDeterministic runs the round engine on a two-tier
// fleet with a cluster-aligned supply skew and a priced crossing — the E14
// configuration — covering the cluster rebalance and the flight ledger under
// the allocs/op gate. Seeds derive from the iteration index, so steal and
// parcel counts (and therefore allocations) are identical run to run.
func BenchmarkFarmTopologyDeterministic(b *testing.B) {
	stations := make([]station.Workstation, 64)
	for i := range stations {
		owner := station.OwnerModel(station.Overnight{Window: 8})
		if i%8 >= 4 {
			owner = station.Overnight{Window: 3}
		}
		stations[i] = station.Workstation{ID: i, Owner: owner, Setup: 1}
	}
	f := Farm{
		Stations:                stations,
		OpportunitiesPerStation: 20,
		Shards:                  8,
		Topology:                Topology{Clusters: 4, CrossLatency: 8},
	}
	job := Job{Tasks: task.Fixed(2000, 2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, int64(i), 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steals == 0 {
			b.Fatal("topology fleet never stole")
		}
	}
}

// BenchmarkFarmReplicateTwoLevel measures the deterministic two-level
// replication engine on a 256-station fleet — the Replicate configuration
// E12 runs at fleet scale.
func BenchmarkFarmReplicateTwoLevel(b *testing.B) {
	f := benchFleet(256)
	f.OpportunitiesPerStation = 4
	job := Job{Tasks: task.Exponential(4000, 20, 3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := f.Replicate(context.Background(), job, equalizedFactory, mc.Config{Trials: 4, Seed: 1, Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if sums[MetricTasksCompleted].Mean <= 0 {
			b.Fatal("no work done")
		}
	}
}
