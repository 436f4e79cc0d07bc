package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"cyclesteal/distrib"
	"cyclesteal/fleet"
	"cyclesteal/internal/farm"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/station"
	"cyclesteal/internal/task"
)

// The fleet-study shape: the default office/laptop/overnight fleet of 64
// stations, setup cost 5, Sharded pool, 4 opportunities per station, and a
// job of 20k exponential tasks with mean 12. Each study replicates it
// fsTrials times through a distrib.Coordinator with fsWorkers ExecStarter
// worker processes, dealt one shard per assignment.
const (
	fsStations = 64
	fsSetup    = 5.0
	fsOpps     = 4
	fsTasks    = 20000
	fsTaskMean = 12.0
	fsTrials   = 64
	fsWorkers  = 2
	fsSpecs    = 4 // distinct fleet seeds the window cycles through
	fsTicks    = 100
)

// fsShape is the workload's size, shrunk for smoke runs.
type fsShape struct {
	stations, tasks, trials, ladderTrials int
}

func fleetShape(smoke bool) fsShape {
	if smoke {
		return fsShape{stations: 8, tasks: 500, trials: 64, ladderTrials: 8}
	}
	return fsShape{stations: fsStations, tasks: fsTasks, trials: fsTrials, ladderTrials: 128}
}

func fleetConfig(stations int, seed int64, workers int) fleet.Config {
	return fleet.Config{Stations: stations, Setup: fsSetup, Pool: fleet.Sharded, Opportunities: fsOpps, Seed: seed, Workers: workers}
}

// fsInputs is the fleet-study set-up: the job and one validated wire spec
// per fleet seed.
type fsInputs struct {
	job   fleet.Job
	cfgs  []fleet.Config
	specs []distrib.Spec
}

func buildFleetStudy(o options, sh fsShape) (fsInputs, error) {
	in := fsInputs{job: fleet.Job{Tasks: fleet.ExponentialTasks(sh.tasks, fsTaskMean, o.seed)}}
	for i := 0; i < fsSpecs; i++ {
		cfg := fleetConfig(sh.stations, o.seed*1000+int64(i), fsWorkers)
		spec, err := distrib.NewSpec(cfg, in.job, sh.trials)
		if err != nil {
			return in, err
		}
		if err := spec.Validate(); err != nil {
			return in, err
		}
		if _, err := spec.Study(); err != nil {
			return in, err
		}
		in.cfgs = append(in.cfgs, cfg)
		in.specs = append(in.specs, spec)
	}
	return in, nil
}

func runFleetStudy(o options, r *report) error {
	ctx := context.Background()
	sh := fleetShape(o.smoke)
	in, err := measureSetup(r, func() (fsInputs, error) { return buildFleetStudy(o, sh) })
	if err != nil {
		return err
	}
	// Reference results, outside the window: in-process fleet.Replicate on
	// the same specs.
	refs := make([]fleet.Replication, len(in.cfgs))
	for i, cfg := range in.cfgs {
		fl, err := fleet.New(cfg)
		if err != nil {
			return err
		}
		if refs[i], err = fl.Replicate(ctx, in.job, sh.trials); err != nil {
			return err
		}
	}
	exec, err := execWorkers()
	if err != nil {
		return err
	}

	ws := &wireStats{}
	var lat []float64
	var done []time.Time
	if err := r.startWindow(); err != nil {
		return err
	}
	for k := 0; time.Since(r.windowStart) < o.window(); k++ {
		i := k % len(in.specs)
		sp := r.tr.begin("distrib.Coordinator.Run", 0, int64(k+1))
		t0 := time.Now()
		coord, err := distrib.NewCoordinator(in.specs[i], distrib.Options{Workers: fsWorkers, Start: ws.starter(exec), ChunkShards: 1})
		if err != nil {
			return err
		}
		rep, err := coord.Run(ctx)
		now := time.Now()
		r.tr.end(sp)
		if err != nil {
			return err
		}
		lat = append(lat, float64(now.Sub(t0).Nanoseconds())/1e6)
		done = append(done, now)
		if o.breakCheck {
			rep.TasksCompleted.Mean++ // the self-tests' deliberately broken check
		}
		r.check(reflect.DeepEqual(rep, refs[i]), "study %d (spec %d): merged replication differs from in-process fleet.Replicate", k, i)
	}
	if err := r.endWindow(); err != nil {
		return err
	}
	wall := r.windowEnd.Sub(r.windowStart).Seconds()
	studies := len(lat)
	reportOps(r, lat, done, "studies")
	r.set("trials_per_s", "1/s", float64(studies*sh.trials)/wall)
	if !o.trace {
		return nil
	}

	ws.mu.Lock()
	r.set("distrib.spawn_ms", "ms", ws.spawn.mean()/1e6)
	r.set("distrib.first_shard_ms", "ms", ws.firstShard.mean()/1e6)
	r.set("distrib.bytes_out", "B", float64(ws.bytesOut)/float64(studies))
	r.set("distrib.bytes_in", "B", float64(ws.bytesIn)/float64(studies))
	r.set("distrib.frames", "count", float64(ws.frames)/float64(studies))
	r.set("distrib.redeals", "count", float64(ws.opened-studies*fsWorkers))
	ws.mu.Unlock()

	// The worker-seconds one trial cost end to end in the window.
	e2e := wall * 1e3 * fsWorkers / float64(studies*sh.trials)
	return runLadder(ctx, o, r, sh, in, exec, e2e)
}

// ladderFarm is the internal engine the fleet facade builds for the
// workload's config: the same stations (station.MixedFleet is the default
// owner cycle on the 100-ticks-per-setup grid), policy and job quantization.
// The ladder pins its results equal to the facade's, so any drift between
// this mirror and fleet.New fails the run.
func ladderFarm(sh fsShape) (farm.Farm, station.SchedulerFactory) {
	fm := farm.Farm{Stations: station.MixedFleet(sh.stations, fsTicks), OpportunitiesPerStation: fsOpps}
	factory := func(ws station.Workstation, _ station.Contract) (model.EpisodeScheduler, error) {
		return sched.NewAdaptiveEqualized(ws.Setup)
	}
	return fm, factory
}

func ladderJob(job fleet.Job) farm.Job {
	tasks := make([]task.Task, len(job.Tasks))
	for i, d := range job.Tasks {
		t := quant.Tick(math.Round(d / fsSetup * fsTicks))
		if t < 1 {
			t = 1
		}
		tasks[i] = task.Task{ID: i, Duration: t}
	}
	return farm.Job{Tasks: tasks}
}

// coreRun drives farm.Core rounds the way RunDeterministic does: join the
// fleet, deal the job, play bounded rounds on one worker.
type coreRun struct {
	r       *report
	parent  int64
	rounds  int
	roundH  timer // ns per PlayRound
	steals  int
	idle    quant.Tick
	life    quant.Tick
	counted bool
	hits    int64
	misses  int64
}

func (c *coreRun) hitsMisses(m *sched.Memo) {
	c.hits += m.Hits()
	c.misses += m.Misses()
}

func (c *coreRun) run(ctx context.Context, fm farm.Farm, factory station.SchedulerFactory, job farm.Job, seed int64, req int64) (farm.Result, error) {
	core := fm.NewCore(factory, seed, farm.ResolveShards(fm.Shards, len(fm.Stations)), len(fm.Stations), false)
	for _, ws := range fm.Stations {
		core.Join(ws)
	}
	core.AddTasks(job.Tasks)
	rounds := max(fm.OpportunitiesPerStation, 1)
	for round := 0; round < rounds && core.Pending() > 0; round++ {
		core.ApplyFaults(round)
		if core.Live() == 0 {
			break
		}
		var sp int64
		var t0 time.Time
		if c.counted {
			sp = c.r.tr.begin("farm.Core.PlayRound", c.parent, req)
			t0 = time.Now()
		}
		if err := core.PlayRound(ctx, 1); err != nil {
			return farm.Result{}, err
		}
		if c.counted {
			c.roundH.addSince(t0)
			c.r.tr.end(sp)
			c.rounds++
		}
	}
	res := core.Result()
	if c.counted {
		c.steals += core.Steals()
		for _, s := range res.Stations {
			c.idle += s.IdleTicks
			c.life += s.LifespanTicks
		}
	}
	return res, nil
}

// trialSeeds are the farm seeds of a study's trials: trial i draws its
// seed from mc's stream for studySeed+i.
func trialSeeds(studySeed int64, trials int) []int64 {
	out := make([]int64, trials)
	for i := range out {
		out[i] = rand.New(rand.NewSource(studySeed + int64(i))).Int63()
	}
	return out
}

// ladderBlocks is how many blocks the ladder's trials are cut into. Every
// block runs through all six rungs before the next starts, so a change in
// machine speed during the ladder (the process may move between a fast and
// a slow CPU) lands on every rung alike instead of on whichever rung was
// running.
const ladderBlocks = 4

// runLadder plays the same trials at every layer — benchmark-driven Core
// rounds, farm.Farm.RunDeterministic, fleet.RunDeterministic,
// Study.RunShards, distrib InProcess, distrib ExecStarter — on one
// processor, pins each rung's result equal to the next, and reports the
// per-trial cost of each rung, the marginal share of each layer and the
// gap to the end-to-end per-trial cost e2e (worker-ms). The trials are
// those of studies of the first spec's fleet, one study per block: block b
// holds trials [b·n, (b+1)·n) of the seed stream.
func runLadder(ctx context.Context, o options, r *report, sh fsShape, in fsInputs, exec distrib.Starter, e2e float64) error {
	// One processor, as each exec worker has: the in-process rungs would
	// otherwise spread a study over both cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := sh.ladderTrials / ladderBlocks
	fm, factory := ladderFarm(sh)
	job := ladderJob(in.job)
	warm := trialSeeds(in.cfgs[0].Seed, min(8, n))
	for _, s := range warm {
		// Warm the engine so the first rung does not pay for it.
		if _, err := fm.RunDeterministic(ctx, job, factory, s, 1); err != nil {
			return err
		}
	}

	names := []string{"farm.Core rounds", "farm.RunDeterministic", "fleet.RunDeterministic", "fleet.Study", "distrib InProcess", "distrib ExecStarter"}
	total := make([]time.Duration, len(names))
	var mergeMS float64
	var allSeeds []int64
	var allCore []farm.Result
	for b := 0; b < ladderBlocks; b++ {
		studySeed := in.cfgs[0].Seed + int64(b*n)
		seeds := trialSeeds(studySeed, n)
		allSeeds = append(allSeeds, seeds...)
		rung := func(k int, fn func(parent int64) error) error {
			sp := r.tr.begin("ladder."+names[k], 0, int64(b))
			t0 := time.Now()
			err := fn(sp)
			total[k] += time.Since(t0)
			r.tr.end(sp)
			return err
		}
		req := func(i int) int64 { return int64(b*n + i + 1) }

		core := make([]farm.Result, n)
		if err := rung(0, func(parent int64) error {
			c := &coreRun{r: r, parent: parent}
			for i, s := range seeds {
				var err error
				if core[i], err = c.run(ctx, fm, factory, job, s, req(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		allCore = append(allCore, core...)
		det := make([]farm.Result, n)
		if err := rung(1, func(parent int64) error {
			for i, s := range seeds {
				sp := r.tr.begin("farm.RunDeterministic", parent, req(i))
				var err error
				det[i], err = fm.RunDeterministic(ctx, job, factory, s, 1)
				r.tr.end(sp)
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for i := range seeds {
			r.check(reflect.DeepEqual(core[i], det[i]), "ladder trial %d: Core rounds differ from farm.RunDeterministic", b*n+i)
		}
		fres := make([]fleet.Result, n)
		if err := rung(2, func(parent int64) error {
			for i, s := range seeds {
				sp := r.tr.begin("fleet.RunDeterministic", parent, req(i))
				fl, err := fleet.New(fleetConfig(sh.stations, s, 1))
				if err == nil {
					fres[i], err = fl.RunDeterministic(ctx, in.job)
				}
				r.tr.end(sp)
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for i := range seeds {
			r.check(sameRun(det[i], fres[i]), "ladder trial %d: fleet.RunDeterministic differs from farm.RunDeterministic", b*n+i)
		}
		var study fleet.Replication
		if err := rung(3, func(parent int64) error {
			fl, err := fleet.New(fleetConfig(sh.stations, studySeed, 1))
			if err != nil {
				return err
			}
			st, err := fl.Study(in.job, n)
			if err != nil {
				return err
			}
			sp := r.tr.begin("fleet.Study.RunShards", parent, 0)
			results, err := st.RunShards(ctx, st.AllShards(), nil)
			r.tr.end(sp)
			if err != nil {
				return err
			}
			sp = r.tr.begin("fleet.Study.Merge", parent, 0)
			t0 := time.Now()
			study, err = st.Merge(results)
			mergeMS += float64(time.Since(t0).Nanoseconds()) / 1e6
			r.tr.end(sp)
			return err
		}); err != nil {
			return err
		}
		r.check(matchesTrials(study, fres), "ladder block %d: Study.RunShards+Merge disagrees with the per-trial fleet.RunDeterministic results", b)
		spec := in.specs[0]
		spec.Seed, spec.Trials = studySeed, n
		coordinate := func(k int, start distrib.Starter) (fleet.Replication, error) {
			var rep fleet.Replication
			err := rung(k, func(parent int64) error {
				c, err := distrib.NewCoordinator(spec, distrib.Options{Workers: 1, Start: start})
				if err != nil {
					return err
				}
				rep, err = c.Run(ctx)
				return err
			})
			return rep, err
		}
		inproc, err := coordinate(4, distrib.InProcess())
		if err != nil {
			return err
		}
		r.check(reflect.DeepEqual(inproc, study), "ladder block %d: distrib InProcess differs from Study.RunShards+Merge", b)
		execRep, err := coordinate(5, exec)
		if err != nil {
			return err
		}
		r.check(reflect.DeepEqual(execRep, inproc), "ladder block %d: distrib ExecStarter differs from distrib InProcess", b)
	}

	T := float64(len(allSeeds))
	ms := make([]float64, len(names))
	for k := range names {
		ms[k] = float64(total[k].Nanoseconds()) / 1e6 / T
	}
	r.set("farm.core_trial_ms", "ms", ms[0])
	r.set("farm.trial_ms", "ms", ms[1])
	r.set("fleet.trial_ms", "ms", ms[2])
	r.set("fleet.study_trial_ms", "ms", ms[3])
	r.set("fleet.merge_ms", "ms", mergeMS/ladderBlocks)
	r.set("distrib.inproc_trial_ms", "ms", ms[4])
	r.set("distrib.exec_trial_ms", "ms", ms[5])
	top := ms[len(ms)-1]
	sum, prev := 0.0, 0.0
	r.notef("layer ladder over %d trials in %d studies of %d on one processor (per-trial ms, marginal ms, share of the top rung):", len(allSeeds), ladderBlocks, n)
	for k, name := range names {
		marginal := ms[k] - prev
		sum += marginal
		r.notef("  %-24s %8.3f %+8.3f %6.1f%%", name, ms[k], marginal, 100*marginal/top)
		prev = ms[k]
	}
	gap := math.Abs(e2e-sum) / e2e
	r.set("ladder.gap_frac", "ratio", gap)
	flag := ""
	if gap > 0.10 {
		flag = "  FLAGGED: above 0.10, a sign of an unmeasured layer"
	}
	r.notef("  end to end %.3f worker-ms per trial; ladder.gap_frac %.3f%s", e2e, gap, flag)

	// The instrumented Core rung: owner sampling and episode timers, the
	// per-station memos, round timers and exact counts. Its results must
	// still equal the plain rung's.
	return instrumentedCore(ctx, r, sh, fm, job, allSeeds, allCore)
}

// instrumentedCore reruns rung 1 with decorated owners (station.sample_ns)
// and a factory that binds each station's own episode memo under a timed
// scheduler (sched.episode_ns, sched.memo_hit_frac) — the farm's built-in
// memo is switched off so the benchmark owns it.
func instrumentedCore(ctx context.Context, r *report, sh fsShape, fm farm.Farm, job farm.Job, seeds []int64, want []farm.Result) error {
	owners := make([]*timedOwner, len(fm.Stations))
	memos := make([]*sched.Memo, len(fm.Stations))
	timed := make([]timedSched, len(fm.Stations))
	stations := make([]station.Workstation, len(fm.Stations))
	for i, ws := range fm.Stations {
		owners[i] = &timedOwner{inner: ws.Owner}
		memos[i] = sched.NewMemo(0)
		ws.Owner = owners[i]
		stations[i] = ws
	}
	ifm := fm
	ifm.Stations = stations
	ifm.DisableEpisodeMemo = true
	factory := func(ws station.Workstation, _ station.Contract) (model.EpisodeScheduler, error) {
		s, err := sched.NewAdaptiveEqualized(ws.Setup)
		if err != nil {
			return nil, err
		}
		ts := &timed[ws.ID]
		ts.inner = memos[ws.ID].Bind(s)
		return ts, nil
	}
	sp := r.tr.begin("ladder.core.instrumented", 0, 0)
	defer r.tr.end(sp)
	c := &coreRun{r: r, parent: sp, counted: true}
	for i, s := range seeds {
		for j := range memos {
			// A fresh memo per trial, as each trial's runners get.
			memos[j] = sched.NewMemo(0)
		}
		res, err := c.run(ctx, ifm, factory, job, s, int64(i+1))
		if err != nil {
			return err
		}
		r.check(reflect.DeepEqual(res, want[i]), "ladder trial %d: instrumented Core rounds differ from the plain rung", i)
		for _, m := range memos {
			c.hitsMisses(m)
		}
	}
	var sample, ep timer
	for i := range owners {
		sample.merge(&owners[i].h)
		ep.merge(&timed[i].h)
	}
	T := float64(len(seeds))
	r.set("station.sample_ns", "ns", sample.mean())
	r.set("sched.episode_ns", "ns", ep.mean())
	if c.hits+c.misses > 0 {
		r.set("sched.memo_hit_frac", "ratio", float64(c.hits)/float64(c.hits+c.misses))
	}
	r.set("farm.round_us", "us", c.roundH.mean()/1e3)
	r.set("farm.rounds_per_trial", "count", float64(c.rounds)/T)
	r.set("farm.steals_per_trial", "count", float64(c.steals)/T)
	r.set("farm.idle_frac", "ratio", float64(c.idle)/float64(c.life))
	return nil
}

// sameRun pins a facade result to the engine result it was converted from:
// every count must match exactly.
func sameRun(a farm.Result, b fleet.Result) bool {
	if a.TasksCompleted != b.TasksCompleted || a.TasksLeft != b.TasksLeft || a.Steals != b.Steals ||
		a.Interrupts != b.Interrupts || a.InFlight != b.InFlight || a.TasksLost != b.TasksLost || len(a.Stations) != len(b.Stations) {
		return false
	}
	for i, s := range a.Stations {
		t := b.Stations[i]
		if s.Station != t.Station || s.Opportunities != t.Opportunities || s.TasksCompleted != t.TasksCompleted || s.Interrupts != t.Interrupts {
			return false
		}
	}
	return true
}

// matchesTrials pins a study's summaries to the per-trial results of the
// same trials: exact trial count, extremes and (to rounding) means.
func matchesTrials(rep fleet.Replication, trials []fleet.Result) bool {
	if rep.Trials != len(trials) || rep.TasksCompleted.N != len(trials) {
		return false
	}
	col := func(f func(fleet.Result) float64) (lo, hi, mean float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, t := range trials {
			v := f(t)
			lo, hi, mean = math.Min(lo, v), math.Max(hi, v), mean+v
		}
		return lo, hi, mean / float64(len(trials))
	}
	for _, c := range []struct {
		s fleet.Summary
		f func(fleet.Result) float64
	}{
		{rep.TasksCompleted, func(t fleet.Result) float64 { return float64(t.TasksCompleted) }},
		{rep.Steals, func(t fleet.Result) float64 { return float64(t.Steals) }},
		{rep.Interrupts, func(t fleet.Result) float64 { return float64(t.Interrupts) }},
	} {
		lo, hi, mean := col(c.f)
		if c.s.Min != lo || c.s.Max != hi || math.Abs(c.s.Mean-mean) > 1e-9*math.Max(1, math.Abs(mean)) {
			return false
		}
	}
	return true
}
