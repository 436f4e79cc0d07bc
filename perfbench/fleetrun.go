package main

import (
	"context"
	"time"

	"cyclesteal/fleet"
)

// The fleet-run shape: the fleet-study fleet and job size on the live
// engine (fleet.Run, Sharded pool, Workers 2), driven by one closed-loop
// client cycling through frPairs (fleet seed, job) pairs made in set-up.
const (
	frWorkers = 2
	frPairs   = 16
)

type frPair struct {
	fl  *fleet.Fleet
	job fleet.Job
}

func buildFleetRun(o options, sh fsShape) ([]frPair, error) {
	out := make([]frPair, frPairs)
	for i := range out {
		seed := o.seed*1000 + int64(i)
		fl, err := fleet.New(fleetConfig(sh.stations, seed, frWorkers))
		if err != nil {
			return nil, err
		}
		out[i] = frPair{fl: fl, job: fleet.Job{Tasks: fleet.ExponentialTasks(sh.tasks, fsTaskMean, seed)}}
	}
	return out, nil
}

func runFleetRun(o options, r *report) error {
	ctx := context.Background()
	sh := fleetShape(o.smoke)
	pairs, err := measureSetup(r, func() ([]frPair, error) { return buildFleetRun(o, sh) })
	if err != nil {
		return err
	}
	var lat []float64
	var done []time.Time
	var steals, imbalance float64
	var idle, life float64
	if err := r.startWindow(); err != nil {
		return err
	}
	for k := 0; time.Since(r.windowStart) < o.window(); k++ {
		p := pairs[k%len(pairs)]
		sp := r.tr.begin("fleet.Run", 0, int64(k+1))
		t0 := time.Now()
		res, err := p.fl.Run(ctx, p.job)
		now := time.Now()
		lat = append(lat, float64(now.Sub(t0).Nanoseconds())/1e6)
		done = append(done, now)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		want := len(p.job.Tasks)
		if o.breakCheck {
			want++ // the self-tests' deliberately broken check
		}
		r.check(res.TasksCompleted+res.TasksLeft == want && res.TasksLost == 0,
			"run %d: %d completed + %d left (+%d lost) != %d tasks", k, res.TasksCompleted, res.TasksLeft, res.TasksLost, want)
		steals += float64(res.Steals)
		imbalance += res.Imbalance()
		for _, s := range res.Stations {
			idle += s.Idle
			life += s.Lifespan
		}
	}
	if err := r.endWindow(); err != nil {
		return err
	}
	wall := r.windowEnd.Sub(r.windowStart).Seconds()
	reportOps(r, lat, done, "fleet.Run jobs")
	r.set("jobs_per_s", "1/s", float64(len(lat))/wall)
	jobAliases(r)
	if !o.trace {
		return nil
	}
	n := float64(len(lat))
	var sum float64
	for _, l := range lat {
		sum += l
	}
	r.set("farm.live_run_ms", "ms", sum/n)
	r.set("farm.steals_per_job", "count", steals/n)
	r.set("farm.imbalance", "ratio", imbalance/n)
	r.set("farm.idle_frac", "ratio", idle/life)

	// The same requests through the deterministic engine: the core-vs-live
	// comparison for replacing the live engine with Core.
	calls := min(len(lat), 200)
	t0 := time.Now()
	for k := 0; k < calls; k++ {
		p := pairs[k%len(pairs)]
		sp := r.tr.begin("fleet.RunDeterministic", 0, int64(k+1))
		res, err := p.fl.RunDeterministic(ctx, p.job)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.check(res.TasksCompleted+res.TasksLeft == len(p.job.Tasks),
			"deterministic run %d: %d completed + %d left != %d tasks", k, res.TasksCompleted, res.TasksLeft, len(p.job.Tasks))
	}
	r.set("farm.det_run_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6/float64(calls))
	r.notef("live engine steals, imbalance and idle time depend on goroutine scheduling; they do not repeat exactly")
	return nil
}
