package farm

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/task"
)

func surveyFarm(n int, owner station.OwnerModel) Farm {
	f := testFarm(n, owner)
	f.OpportunitiesPerStation = 5
	return f
}

// surveyReplicate merges every shard of a survey replication, the way the
// fleet facade's Replicate does.
func surveyReplicate(t *testing.T, f Farm, job Job, cfg mc.Config) []stats.Summary {
	t.Helper()
	ids := make([]int, mc.Shards)
	for i := range ids {
		ids[i] = i
	}
	shards, err := f.SurveyShards(context.Background(), job, equalizedFactory, cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := mc.MergeShards(NumSurveyMetrics, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func TestSurveyAggregates(t *testing.T) {
	f := surveyFarm(8, station.Office{MeanIdle: 5000, MaxP: 2})
	res, err := f.Survey(context.Background(), Job{}, equalizedFactory, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != 8 || res.Steals != 0 {
		t.Fatalf("stations = %d, steals = %d", len(res.Stations), res.Steals)
	}
	var work, lifespan quant.Tick
	for _, s := range res.Stations {
		if s.Opportunities != 5 {
			t.Errorf("station %d ran %d opportunities, want 5", s.Station, s.Opportunities)
		}
		work += s.FluidWork
		lifespan += s.LifespanTicks
	}
	if work != res.FluidWork || work < 1 {
		t.Errorf("aggregation mismatch: stations bank %d, result %d", work, res.FluidWork)
	}
	if u := float64(work) / float64(lifespan); u <= 0 || u >= 1 {
		t.Errorf("utilization = %g, want within (0, 1)", u)
	}
}

// The whole Result — every per-station field — is bit-identical at any
// worker count, with and without a job to deal.
func TestSurveyBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, job := range []Job{{}, {Tasks: task.Uniform(3000, 10, 100, 1)}} {
		f := surveyFarm(10, station.Laptop{MeanIdle: 3000})
		want, err := f.Survey(context.Background(), job, equalizedFactory, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8, 32} {
			got, err := f.Survey(context.Background(), job, equalizedFactory, 7, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d (%d tasks): Result diverged from workers=1", workers, len(job.Tasks))
			}
		}
	}
}

// Each station drains only its own hand of the deal (task i to station
// i mod n): a station that can never run a period strands its hand, and
// nobody steals it.
func TestSurveyWithTasks(t *testing.T) {
	f := surveyFarm(4, station.Overnight{Window: 20000})
	f.Stations[3].Owner = station.Overnight{Window: 1}
	job := Job{Tasks: task.Uniform(400, 10, 100, 3)}
	res, err := f.Survey(context.Background(), job, equalizedFactory, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 300 || res.TasksLeft != 100 || res.Steals != 0 {
		t.Errorf("%d done, %d left, %d steals; want 300, 100, 0 (station 3's hand stranded)", res.TasksCompleted, res.TasksLeft, res.Steals)
	}
	if res.TaskWork > res.FluidWork {
		t.Errorf("task work %d exceeds fluid work %d", res.TaskWork, res.FluidWork)
	}
}

// Private queues never pool: even with every queue drained mid-run,
// stations keep playing all their opportunities (fluid work keeps banking).
func TestSurveyRunsAllOpportunitiesDespiteEmptyQueues(t *testing.T) {
	f := surveyFarm(3, station.Overnight{Window: 20000})
	f.OpportunitiesPerStation = 7
	res, err := f.Survey(context.Background(), Job{Tasks: task.Fixed(3, 10)}, equalizedFactory, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stations {
		if s.Opportunities != 7 {
			t.Errorf("station %d played %d opportunities, want all 7", s.Station, s.Opportunities)
		}
	}
}

func TestSurveyEmptyFleet(t *testing.T) {
	if _, err := (Farm{}).Survey(context.Background(), Job{}, equalizedFactory, 1, 1); err == nil {
		t.Error("empty fleet accepted by Survey")
	}
}

func TestSurveyFactoryErrorPropagates(t *testing.T) {
	f := surveyFarm(2, station.Laptop{MeanIdle: 1000})
	_, err := f.Survey(context.Background(), Job{}, func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		return nil, errBoom
	}, 1, 0)
	if err == nil {
		t.Error("factory error swallowed")
	}
}

// Every failing station surfaces, joined in station order.
func TestSurveyJoinsAllStationErrors(t *testing.T) {
	f := surveyFarm(4, station.Laptop{MeanIdle: 1000})
	_, err := f.Survey(context.Background(), Job{}, func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		if ws.ID%2 == 1 {
			return nil, errBoom
		}
		return sched.NewAdaptiveEqualized(ws.Setup)
	}, 1, 2)
	if err == nil {
		t.Fatal("factory errors swallowed")
	}
	msg := err.Error()
	if i, j := strings.Index(msg, "station 1"), strings.Index(msg, "station 3"); i < 0 || j < i {
		t.Errorf("joined error should name station 1 then station 3: %v", msg)
	}
}

func TestSurveyMaliciousUnderperformsBenign(t *testing.T) {
	benign, err := surveyFarm(6, station.Overnight{Window: 20000}).Survey(context.Background(), Job{}, equalizedFactory, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	malicious, err := surveyFarm(6, station.Malicious{Base: station.Overnight{Window: 20000}, Setup: 10}).Survey(context.Background(), Job{}, equalizedFactory, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if malicious.FluidWork >= benign.FluidWork {
		t.Errorf("malicious owners (%d) should cost work vs benign (%d)", malicious.FluidWork, benign.FluidWork)
	}
}

// Episode memoization must be invisible: the whole Result is bit-identical
// with the per-station episode cache enabled vs disabled, at workers 1 and
// 8, with and without a job.
func TestSurveyMemoOnOffBitIdentical(t *testing.T) {
	for _, job := range []Job{{}, {Tasks: task.Uniform(2400, 10, 80, 4)}} {
		base := surveyFarm(12, station.Office{MeanIdle: 2500, MaxP: 2})
		want, err := base.Survey(context.Background(), job, equalizedFactory, 13, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, memoOff := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				f := base
				f.DisableEpisodeMemo = memoOff
				got, err := f.Survey(context.Background(), job, equalizedFactory, 13, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("memoOff=%v workers=%d (%d tasks): Result diverged", memoOff, workers, len(job.Tasks))
				}
			}
		}
	}
}

// A survey's final progress snapshot is its result, even with no barrier.
func TestSurveyProgressFinalSnapshot(t *testing.T) {
	var snaps []Progress
	f := surveyFarm(4, station.Overnight{Window: 20000})
	f.Progress = func(p Progress) { snaps = append(snaps, p) }
	res, err := f.Survey(context.Background(), Job{Tasks: task.Fixed(40, 10)}, equalizedFactory, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Progress{{Completed: res.TasksCompleted, Remaining: res.TasksLeft}}
	if !reflect.DeepEqual(snaps, want) {
		t.Errorf("snapshots %+v, want exactly %+v", snaps, want)
	}
}

func TestSurveyShardsDeterministicAcrossWorkers(t *testing.T) {
	f := surveyFarm(6, station.Office{MeanIdle: 800, MaxP: 2})
	job := Job{Tasks: task.Exponential(600, 30, 2)}
	a := surveyReplicate(t, f, job, mc.Config{Trials: 6, Seed: 9, Workers: 1})
	b := surveyReplicate(t, f, job, mc.Config{Trials: 6, Seed: 9, Workers: 8})
	for m := range a {
		if a[m] != b[m] {
			t.Errorf("metric %d differs across worker budgets:\n  w1: %+v\n  w8: %+v", m, a[m], b[m])
		}
	}
}

func TestSurveyShardsMetricSanity(t *testing.T) {
	f := surveyFarm(4, station.Office{MeanIdle: 600, MaxP: 2})
	sums := surveyReplicate(t, f, Job{}, mc.Config{Trials: 5, Seed: 2})
	if util := sums[SurveyMetricUtilization]; util.Min < 0 || util.Max > 1 {
		t.Errorf("utilization outside [0,1]: %+v", util)
	}
	if sums[SurveyMetricWork].Mean <= 0 || sums[SurveyMetricLifespan].Min <= 0 {
		t.Errorf("fleet banked no work or offered no lifespan: %+v / %+v", sums[SurveyMetricWork], sums[SurveyMetricLifespan])
	}
	if sums[SurveyMetricTasks].Mean != 0 || sums[SurveyMetricTaskWork].Mean != 0 {
		t.Errorf("fluid-only survey reported task work: %+v", sums[SurveyMetricTasks])
	}
	if sums[SurveyMetricWork].N != 5 {
		t.Errorf("trial count %d, want 5", sums[SurveyMetricWork].N)
	}
}

func TestSurveyShardsRejectsBadConfig(t *testing.T) {
	f := surveyFarm(2, station.Office{MeanIdle: 100, MaxP: 1})
	if _, err := f.SurveyShards(context.Background(), Job{}, equalizedFactory, mc.Config{Trials: 0, Seed: 1}, []int{0}); err == nil {
		t.Error("trials=0 accepted")
	}
}

// The distribution contract on the survey path: disjoint shard subsets, run
// in any order, merge to the exact whole-study summaries.
func TestSurveyShardsBitIdentical(t *testing.T) {
	f := surveyFarm(6, station.Office{MeanIdle: 600, MaxP: 2})
	job := Job{Tasks: task.Exponential(360, 30, 4)}
	cfg := mc.Config{Trials: 70, Seed: 4}
	want := surveyReplicate(t, f, job, cfg)
	for _, parts := range []int{2, 3} {
		var shards []mc.ShardAccums
		for p := parts - 1; p >= 0; p-- {
			var ids []int
			for s := p; s < mc.Shards; s += parts {
				ids = append(ids, s)
			}
			part, err := f.SurveyShards(context.Background(), job, equalizedFactory, cfg, ids)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, part...)
		}
		sums, err := mc.MergeShards(NumSurveyMetrics, shards)
		if err != nil {
			t.Fatal(err)
		}
		for m := range want {
			if sums[m] != want[m] {
				t.Errorf("parts=%d metric %d diverged:\n got %+v\nwant %+v", parts, m, sums[m], want[m])
			}
		}
	}
}

// PlayHorizon is PlayRound minus the barriers: where the barrier has nothing
// to do — no tasks to steal, or one group with no one to steal from — a
// horizon and the same number of rounds leave the Core bit-identical.
func TestPlayHorizonMatchesPlayRound(t *testing.T) {
	for _, c := range []struct {
		groups int
		tasks  []task.Task
	}{{6, nil}, {1, task.Uniform(500, 10, 80, 5)}} {
		build := func() *Core {
			f := surveyFarm(6, station.Office{MeanIdle: 2500, MaxP: 2})
			core := f.NewCore(equalizedFactory, 17, c.groups, 6, false)
			for _, ws := range f.Stations {
				core.Join(ws)
			}
			core.AddTasks(c.tasks)
			return core
		}
		rounds := build()
		for r := 0; r < 5; r++ {
			if err := rounds.PlayRound(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
		}
		horizon := build()
		if err := horizon.PlayHorizon(context.Background(), 5, 3); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rounds.Result(), horizon.Result()) {
			t.Errorf("groups=%d tasks=%d: PlayHorizon diverged from 5 PlayRounds", c.groups, len(c.tasks))
		}
	}
}

// A departed runner never plays again, so its episode memo and simulator
// buffers are released at the teardown, leave or crash alike.
func TestTeardownReleasesScratch(t *testing.T) {
	f := testFarm(4, station.Office{MeanIdle: 2500, MaxP: 2})
	core := f.NewCore(equalizedFactory, 7, 2, 4, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddTasks(task.Fixed(400, 5))
	if err := core.PlayRound(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if core.runners[1].scr.memo == nil {
		t.Fatal("a playing runner has no memo; the test exercises nothing")
	}
	core.Leave(1)
	core.Crash(2)
	for _, slot := range []int{1, 2} {
		if scr := core.runners[slot].scr; scr.memo != nil || !reflect.DeepEqual(scr.bufs, stationScratch{}.bufs) {
			t.Errorf("departed slot %d still holds its scratch", slot)
		}
	}
	if core.runners[0].scr.memo == nil || core.runners[3].scr.memo == nil {
		t.Error("teardown released a live runner's memo")
	}
}
