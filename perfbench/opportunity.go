package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"cyclesteal/internal/adversary"
	"cyclesteal/internal/expect"
	"cyclesteal/internal/game"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/stats"
)

// The opportunity-mc shape: the E8 cell (U = 100c, p = 2, c = 25 ticks),
// six schedulers × two stochastic owners, each pairing replicated as a
// study of oppTrials trials on mc.RunState with two workers and a warm
// sim.Buffers + sched.Memo per worker, as experiments.monteCarlo runs it.
const (
	oppC       = quant.Tick(25)
	oppU       = 100 * oppC
	oppP       = 2
	oppTrials  = 512
	oppWorkers = 2
)

// oppPairing is one (scheduler, owner) study with its guaranteed floor.
type oppPairing struct {
	sched model.EpisodeScheduler
	owner string // "poisson" or "random"
	floor quant.Tick
}

// interrupter builds the pairing's owner for one trial.
func (p oppPairing) interrupter(rng *rand.Rand) sim.Interrupter {
	if p.owner == "poisson" {
		return &adversary.Poisson{Rng: rng, Mean: float64(oppU) / 3}
	}
	return &adversary.Random{Rng: rng, Prob: 0.7}
}

// buildOpportunity is the workload set-up: the six schedulers (the
// expected-optimal one is solved here) and their exact game floors.
func buildOpportunity() ([]oppPairing, error) {
	eq, err := sched.NewAdaptiveEqualized(oppC)
	if err != nil {
		return nil, err
	}
	ag, err := sched.NewAdaptiveGuideline(oppC)
	if err != nil {
		return nil, err
	}
	na, err := sched.NewNonAdaptive(oppU, oppP, oppC)
	if err != nil {
		return nil, err
	}
	es, err := expect.SolveExpected(oppU, oppC, 3/float64(oppU))
	if err != nil {
		return nil, err
	}
	var out []oppPairing
	for _, s := range []model.EpisodeScheduler{eq, ag, na, es.Scheduler(), sched.SinglePeriod{}, sched.EqualSplit{M: 10}} {
		floor, err := game.Evaluate(s, oppP, oppU, oppC)
		if err != nil {
			return nil, err
		}
		for _, owner := range []string{"poisson", "random"} {
			out = append(out, oppPairing{sched: s, owner: owner, floor: floor})
		}
	}
	return out, nil
}

// oppScratch is one mc worker's state: the warm simulator buffers and
// episode memo of experiments.monteCarlo, plus the traced run's timers and
// exact counters.
type oppScratch struct {
	bufs sim.Buffers
	memo *sched.Memo
	bad  int
	msg  string

	// Traced runs only.
	ts       timedSched
	simH     timer
	bodyH    timer // the trial closure
	selfH    timer // between closures on this worker: seeding, accumulator adds, dispatch
	lastExit time.Time
	opps     int64
	lifespan int64
	work     int64
	setup    int64
	killed   int64
	idle     int64
}

// oppStudy runs studies and folds each study's worker scratch into agg.
type oppStudy struct {
	traced     bool
	breakCheck bool
	mu         sync.Mutex
	states     []*oppScratch

	agg          oppScratch // timers and counters of collected studies
	hits, misses int64      // episode memo lookups of collected studies
}

func (st *oppStudy) newState() any {
	s := &oppScratch{memo: sched.NewMemo(0)}
	st.mu.Lock()
	st.states = append(st.states, s)
	st.mu.Unlock()
	return s
}

// trial is the per-trial closure for pairing p: play one opportunity,
// check the floor and the lifespan ledger, return the banked work.
func (st *oppStudy) trial(p oppPairing) mc.StateFunc {
	opp := sim.Opportunity{U: oppU, P: oppP, C: oppC}
	want := oppU
	if st.breakCheck {
		want++ // the self-tests' deliberately broken check
	}
	traced := st.traced
	return func(rng *rand.Rand, state any) (float64, error) {
		scr := state.(*oppScratch)
		var entry time.Time
		if traced {
			entry = time.Now()
			if !scr.lastExit.IsZero() {
				scr.selfH.add(float64(entry.Sub(scr.lastExit).Nanoseconds()))
			}
		}
		s := scr.memo.Bind(p.sched)
		if traced {
			scr.ts.inner = s
			s = &scr.ts
		}
		adv := p.interrupter(rng)
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		res, err := sim.Run(s, adv, opp, sim.Config{Buffers: &scr.bufs})
		if traced {
			scr.simH.addSince(t0)
		}
		if err != nil {
			return 0, err
		}
		if sum := res.Work + res.SetupTicks + res.KilledTicks + res.IdleTicks; res.Work < p.floor || sum != want {
			scr.bad++
			if scr.msg == "" {
				scr.msg = fmt.Sprintf("%s vs %s: work %d (floor %d), ledger %d (want %d)", model.NameOf(p.sched), p.owner, res.Work, p.floor, sum, want)
			}
		}
		if traced {
			scr.opps++
			scr.lifespan += int64(oppU)
			scr.work += int64(res.Work)
			scr.setup += int64(res.SetupTicks)
			scr.killed += int64(res.KilledTicks)
			scr.idle += int64(res.IdleTicks)
			scr.lastExit = scr.bodyH.addSince(entry)
		}
		return float64(res.Work), nil
	}
}

// run replicates pairing p as one study and returns its summary.
func (st *oppStudy) run(ctx context.Context, p oppPairing, seed int64, trials, workers int) (stats.Summary, error) {
	return mc.RunState(ctx, mc.Config{Trials: trials, Seed: seed, Workers: workers}, st.newState, st.trial(p))
}

// collect folds the finished study's worker scratch into the report's
// operation counts and into agg, and drops it.
func (st *oppStudy) collect(r *report, trials int) {
	st.mu.Lock()
	states := st.states
	st.states = nil
	st.mu.Unlock()
	a := &st.agg
	for _, s := range states {
		r.failed += s.bad
		if s.msg != "" && len(r.failures) < 10 {
			r.failures = append(r.failures, s.msg)
		}
		if !st.traced {
			continue
		}
		a.bodyH.merge(&s.bodyH)
		a.selfH.merge(&s.selfH)
		a.simH.merge(&s.simH)
		a.ts.h.merge(&s.ts.h)
		a.ts.periods += s.ts.periods
		a.opps += s.opps
		a.lifespan += s.lifespan
		a.work += s.work
		a.setup += s.setup
		a.killed += s.killed
		a.idle += s.idle
		st.hits += s.memo.Hits()
		st.misses += s.memo.Misses()
	}
	r.attempted += trials
}

// reset clears agg and the memo counts.
func (st *oppStudy) reset() {
	st.agg = oppScratch{}
	st.hits, st.misses = 0, 0
}

// oppSeed is study k's base seed: disjoint trial streams per study.
func oppSeed(seed int64, k int) int64 { return seed<<32 + int64(k)*oppTrials }

func runOpportunityMC(o options, r *report) error {
	ctx := context.Background()
	pairs, err := measureSetup(r, buildOpportunity)
	if err != nil {
		return err
	}
	trials := oppTrials
	if o.smoke {
		trials = 64
	}
	st := &oppStudy{traced: o.trace, breakCheck: o.breakCheck}
	var lat []float64
	var done []time.Time
	if err := r.startWindow(); err != nil {
		return err
	}
	for k := 0; time.Since(r.windowStart) < o.window(); k++ {
		p := pairs[k%len(pairs)]
		sp := r.tr.begin("mc.RunState", 0, int64(k+1))
		t0 := time.Now()
		sum, err := st.run(ctx, p, oppSeed(o.seed, k), trials, oppWorkers)
		now := time.Now()
		lat = append(lat, float64(now.Sub(t0).Nanoseconds())/1e6)
		done = append(done, now)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		st.collect(r, trials)
		if sum.N != trials {
			r.fail(fmt.Sprintf("study %d summarized %d trials, want %d", k, sum.N, trials))
		}
	}
	if err := r.endWindow(); err != nil {
		return err
	}
	wall := r.windowEnd.Sub(r.windowStart).Seconds()
	reportOps(r, lat, done, "studies")
	r.set("trials_per_s", "1/s", float64(len(lat)*trials)/wall)
	if !o.trace {
		return nil
	}

	// Per-call timers from the measured window.
	body, self, simH, ep := st.agg.bodyH, st.agg.selfH, st.agg.simH, st.agg.ts.h
	r.set("mc.trial_ns", "ns", body.mean()+self.mean())
	r.set("mc.self_ns", "ns", self.mean())
	r.set("sim.run_ns", "ns", simH.mean())
	r.set("sched.episode_ns", "ns", ep.mean())
	r.set("mc.alloc_bytes_per_trial", "B", float64(r.rt1.allocBytes-r.rt0.allocBytes)/float64(len(lat)*trials))
	if tt := body.mean() + self.mean(); tt > 0 {
		r.notef("mc self share of a trial: %.1f%% (seeding, accumulator adds, dispatch)", 100*self.mean()/tt)
	}

	// Exact counts from a fixed pass: one study per pairing on one worker,
	// so the per-worker memo sees a deterministic trial sequence.
	st.reset()
	refs := make([]stats.Summary, len(pairs))
	for k, p := range pairs {
		sp := r.tr.begin("mc.RunState.count", 0, int64(-k-1))
		refs[k], err = st.run(ctx, p, oppSeed(o.seed, k), trials, 1)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		st.collect(r, trials)
	}
	a, life := &st.agg, float64(st.agg.lifespan)
	r.set("sim.periods_per_opp", "count", float64(a.ts.periods)/float64(a.opps))
	r.set("sim.work_frac", "ratio", float64(a.work)/life)
	r.set("sim.setup_frac", "ratio", float64(a.setup)/life)
	r.set("sim.killed_frac", "ratio", float64(a.killed)/life)
	r.set("sim.idle_frac", "ratio", float64(a.idle)/life)
	if st.hits+st.misses > 0 {
		r.set("sched.memo_hit_frac", "ratio", float64(st.hits)/float64(st.hits+st.misses))
	}

	// Shard cut and merge: RunVecShards + MergeShards must reproduce
	// RunState bit for bit.
	var merge timer
	all := make([]int, mc.Shards)
	for i := range all {
		all[i] = i
	}
	for k, p := range pairs {
		fn := st.trial(p)
		vec := func(rng *rand.Rand, state any) ([]float64, error) {
			v, err := fn(rng, state)
			return []float64{v}, err
		}
		cfg := mc.Config{Trials: trials, Seed: oppSeed(o.seed, k), Workers: oppWorkers}
		sp := r.tr.begin("mc.RunVecShards", 0, int64(-k-1))
		shards, err := mc.RunVecShards(ctx, cfg, 1, st.newState, vec, all)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		st.collect(r, trials)
		sp = r.tr.begin("mc.MergeShards", 0, int64(-k-1))
		t0 := time.Now()
		sums, err := mc.MergeShards(1, shards)
		merge.addSince(t0)
		r.tr.end(sp)
		r.check(err == nil && reflect.DeepEqual(sums[0], refs[k]), "pairing %d: merged shards differ from RunState (err %v)", k, err)
	}
	r.set("mc.merge_us", "us", merge.mean()/1e3)

	// Parallel efficiency: two mc workers against a plain single-threaded
	// loop over the same trials, both without timers.
	plain := &oppStudy{breakCheck: o.breakCheck}
	studies := 24
	if o.smoke {
		studies = 2
	}
	t0 := time.Now()
	for k := 0; k < studies; k++ {
		p := pairs[k%len(pairs)]
		fn := plain.trial(p)
		scr := plain.newState()
		base := oppSeed(o.seed, k)
		for i := 0; i < trials; i++ {
			if _, err := fn(rand.New(rand.NewSource(base+int64(i))), scr); err != nil {
				return err
			}
		}
		plain.collect(r, trials)
	}
	serial := float64(studies*trials) / time.Since(t0).Seconds()
	t0 = time.Now()
	for k := 0; k < studies; k++ {
		if _, err := plain.run(ctx, pairs[k%len(pairs)], oppSeed(o.seed, k), trials, oppWorkers); err != nil {
			return err
		}
		plain.collect(r, trials)
	}
	parallel := float64(studies*trials) / time.Since(t0).Seconds()
	r.set("mc.parallel_eff", "ratio", parallel/(oppWorkers*serial))
	return nil
}
