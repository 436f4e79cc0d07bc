package farm

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cyclesteal/internal/model"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// PlayHorizon's caller claims groups alongside its helpers. At one player
// (no helper at all), two, three, and more players than groups, the played
// Core is bit-identical, a context cancelled before or during play is
// reported as ctx.Err(), and station errors join in slot order.
func TestPlayHorizonWorkerCounts(t *testing.T) {
	const groups, stations = 4, 8
	build := func(factory station.SchedulerFactory) *Core {
		f := surveyFarm(stations, station.Office{MeanIdle: 2500, MaxP: 2})
		core := f.NewCore(factory, 23, groups, stations, false)
		for _, ws := range f.Stations {
			core.Join(ws)
		}
		core.AddTasks(task.Uniform(4000, 5, 60, 3))
		return core
	}
	failOdd := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		if ws.ID%2 == 1 {
			return nil, errBoom
		}
		return sched.NewAdaptiveEqualized(ws.Setup)
	}
	var want Result
	for i, workers := range []int{1, 2, 3, groups + 3} {
		core := build(equalizedFactory)
		if err := core.PlayHorizon(context.Background(), 3, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = core.Result()
		} else if got := core.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := build(equalizedFactory).PlayHorizon(ctx, 3, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d, cancelled before play: err = %v, want context.Canceled", workers, err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		cancelAt5 := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
			if ws.ID == 5 {
				cancel()
			}
			return failOdd(ws, c)
		}
		if err := build(cancelAt5).PlayHorizon(ctx, 3, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d, cancelled mid-play: err = %v, want context.Canceled", workers, err)
		}
		cancel()

		err := build(failOdd).PlayHorizon(context.Background(), 3, workers)
		if err == nil {
			t.Fatalf("workers=%d: station errors swallowed", workers)
		}
		msg, at := err.Error(), -1
		for _, id := range []string{"station 1:", "station 3:", "station 5:", "station 7:"} {
			j := strings.Index(msg, id)
			if j <= at {
				t.Errorf("workers=%d: joined error should name stations 1, 3, 5, 7 in slot order: %v", workers, msg)
				break
			}
			at = j
		}
	}
}

// Deals skip groups with no live station: arrivals go round-robin over the
// live groups only, and a drained orphan's tasks land on the first live
// groups in order, one steal per group that received any.
func TestCoreDealsSkipDeadGroups(t *testing.T) {
	f := testFarm(4, station.Office{MeanIdle: 2500, MaxP: 2})
	core := f.NewCore(equalizedFactory, 5, 4, 4, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddTasks(task.Fixed(2, 5)) // task 0 to group 0, task 1 to group 1
	core.Leave(0)                   // group 0's lone task drains to group 1
	if core.Steals() != 1 {
		t.Errorf("draining one task made %d steals, want 1", core.Steals())
	}
	core.AddTasks([]task.Task{{ID: 10, Duration: 5}, {ID: 11, Duration: 5}, {ID: 12, Duration: 5}, {ID: 13, Duration: 5}})
	want := [][]int{{}, {1, 0, 10, 13}, {11}, {12}}
	for g, q := range core.queues {
		var ids []int
		for _, tk := range q.Steal(q.Remaining()) {
			ids = append(ids, tk.ID)
		}
		if !slices.Equal(ids, want[g]) {
			t.Errorf("group %d holds tasks %v, want %v", g, ids, want[g])
		}
	}
}
