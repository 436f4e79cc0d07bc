package farm

// Regression tests for the fleet-layer bugfixes: a late kill must not strand
// its task while another station idles, and a killed period returns exactly
// the tasks it shipped.

import (
	"context"
	"math/rand"
	"testing"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// killAt interrupts at a fixed episode offset while budget remains.
type killAt struct{ at quant.Tick }

func (k killAt) NextInterrupt(p int, L quant.Tick, ep model.TickSchedule) (quant.Tick, bool) {
	if p < 1 || k.at > L {
		return 0, false
	}
	return k.at, true
}

// lateKillOwner offers one generous contract whose single period is killed
// at its second-to-last tick — in-flight tasks die late and come back — and
// only unusable 1-tick contracts after that, so this station can never
// finish the job itself.
type lateKillOwner struct{ calls int }

func (o *lateKillOwner) Sample(rng *rand.Rand) station.Contract {
	o.calls++
	if o.calls == 1 {
		return station.Contract{U: 1000, P: 1}
	}
	return station.Contract{U: 1, P: 0}
}

func (o *lateKillOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return killAt{at: 999}
}

func (o *lateKillOwner) Name() string { return "latekill" }

// steadyOwner offers large benign contracts, every time.
type steadyOwner struct{}

func (steadyOwner) Sample(rng *rand.Rand) station.Contract { return station.Contract{U: 5000, P: 0} }

func (steadyOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return adversary.None{}
}

func (steadyOwner) Name() string { return "steady" }

// Bugfix regression: a station whose queue reads empty while another
// station's in-flight task is about to be killed and returned must keep
// borrowing — quitting on an empty queue left TasksLeft > 0 with willing
// stations idle. Here station 1's group starts dry while station 0 (its own
// group) holds the job's only task in a period killed at its last tick; the
// barrier done-check sees the returned task, station 1 steals it and
// completes it, and then stops borrowing.
func TestFarmRunNoEarlyExitStarvationOnLateKill(t *testing.T) {
	stations := []station.Workstation{
		{ID: 0, Owner: &lateKillOwner{}, Setup: 10},
		{ID: 1, Owner: steadyOwner{}, Setup: 10},
	}
	f := Farm{Stations: stations, OpportunitiesPerStation: 300, Shards: 2}
	singlePeriod := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		return sched.SinglePeriod{}, nil
	}
	res, err := f.RunDeterministic(context.Background(), Job{Tasks: task.Fixed(1, 50)}, singlePeriod, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Fatalf("late-killed task stranded: %d left", res.TasksLeft)
	}
	if res.Stations[1].TasksCompleted != 1 || res.Steals == 0 {
		t.Errorf("station 1 should have stolen and rescued the task: completed %d, %d steals", res.Stations[1].TasksCompleted, res.Steals)
	}
	if res.Stations[0].TasksCompleted != 0 {
		t.Errorf("the late-kill station cannot complete tasks, reported %d", res.Stations[0].TasksCompleted)
	}
	if res.Stations[0].KilledTicks == 0 {
		t.Error("station 0's period was never killed; the test exercised nothing")
	}
	if opps := res.Stations[1].Opportunities; opps >= 300 {
		t.Errorf("station 1 never stopped borrowing after completion: %d opportunities", opps)
	}
}

// The farm's lifespan accounting: per-station lifespan and idle columns stay
// within the lifespan each station actually played.
func TestFarmRunAccountsLifespan(t *testing.T) {
	f := testFarm(4, station.Office{MeanIdle: 3000, MaxP: 2})
	job := Job{Tasks: task.Uniform(500, 5, 50, 1)}
	res, err := f.RunDeterministic(context.Background(), job, equalizedFactory, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stations {
		if s.Opportunities > 0 && s.LifespanTicks < 1 {
			t.Errorf("station %d played %d opportunities over %d lifespan", s.Station, s.Opportunities, s.LifespanTicks)
		}
		if s.FluidWork > s.LifespanTicks {
			t.Errorf("station %d banked %d work over %d lifespan", s.Station, s.FluidWork, s.LifespanTicks)
		}
		if s.IdleTicks > s.LifespanTicks {
			t.Errorf("station %d idled %d of %d lifespan", s.Station, s.IdleTicks, s.LifespanTicks)
		}
	}
}

// shipKillOwner offers one two-period contract whose second period is killed
// at its last instant, then unusable 1-tick contracts.
type shipKillOwner struct{ calls int }

func (o *shipKillOwner) Sample(rng *rand.Rand) station.Contract {
	o.calls++
	if o.calls == 1 {
		return station.Contract{U: 100, P: 1}
	}
	return station.Contract{U: 1, P: 0}
}

func (o *shipKillOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return killAt{at: 100}
}

func (o *shipKillOwner) Name() string { return "shipkill" }

// Single-shot shipping regression: a period's tasks leave the queue when the
// period starts, and its kill returns exactly the shipped set to the front
// of the queue — so the station sharing that queue rescues the killed pair
// instead of finding it drained or duplicated. Before the restructure the
// killed period only took its tasks at kill-processing time, so "in-flight
// tasks returned" depended on scan timing rather than on what the period
// held.
func TestRacingStationsCannotDrainInFlightTasks(t *testing.T) {
	stations := []station.Workstation{
		{ID: 0, Owner: &shipKillOwner{}, Setup: 10},
		{ID: 1, Owner: steadyOwner{}, Setup: 10},
	}
	f := Farm{Stations: stations, OpportunitiesPerStation: 300, Shards: 1}
	factory := func(ws station.Workstation, c station.Contract) (model.EpisodeScheduler, error) {
		if ws.ID == 0 && c.U == 100 {
			// Two periods of 50 (capacity 40 each: two 20-tick tasks per
			// period); killAt{100} kills the second at its last instant.
			return sched.NonAdaptiveFromPeriods(model.TickSchedule{50, 50}, c.P, 10)
		}
		return sched.SinglePeriod{}, nil
	}
	res, err := f.RunDeterministic(context.Background(), Job{Tasks: task.Fixed(6, 20)}, factory, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksLeft != 0 {
		t.Fatalf("killed-period tasks stranded: %d left", res.TasksLeft)
	}
	if res.TasksCompleted != 6 {
		t.Errorf("completed %d of 6 tasks", res.TasksCompleted)
	}
	if got := res.Stations[0].TasksCompleted; got != 2 {
		t.Errorf("station 0 should bank only its first period's 2 tasks, got %d", got)
	}
	if got := res.Stations[1].TasksCompleted; got != 4 {
		t.Errorf("station 1 should rescue the killed pair plus the leftovers (4), got %d", got)
	}
	if res.Stations[0].KilledTicks != 50 {
		t.Errorf("station 0 killed ticks = %d, want 50", res.Stations[0].KilledTicks)
	}
}
