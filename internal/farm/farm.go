// Package farm implements the setting of the paper's title: *data-parallel*
// cycle-stealing in a *network* of workstations. One job — a bag of
// indivisible tasks — is farmed out across every opportunity the fleet's
// owners offer: stations draw work from the job's task queues as their
// periods open, and killed periods return their in-flight tasks for
// rescheduling elsewhere.
//
// This is the layer a downstream user runs, and the only station-driving
// loop in the repo: internal/station models who offers time and when they
// interrupt; internal/sched decides period sizing on each opportunity; this
// package binds them to a workload and reports job-level outcomes
// (completion fraction, work distribution across stations, lost-to-kills
// accounting).
//
// # One engine
//
// Core is the engine: a standing set of station runners partitioned into
// group queues (plain task.Bag deques), advanced in synchronized rounds.
// Within a round each group plays its stations sequentially against its own
// queue; at the round barrier dry groups steal half a victim's queue in
// deterministic cyclic group order — the work-stealing idiom of
// Gast–Khatiri–Trystram, modelled as a discrete, event-ordered process.
// Farm.Shards fixes the group count (0 = auto, 1 = one shared queue).
// RunDeterministic plays one shared job in bounded rounds; Survey plays the
// fleet survey, one private queue per station and no stealing, every
// contract played; the fleet package's resident service keeps a Core alive
// across jobs.
//
// # Determinism contract
//
// Every station draws contracts from its own rng stream derived from (seed,
// station ID) via station.RNG, and every queue mutation is ordered by
// (round, group, station slot), so a run is a pure function of (fleet, job,
// factory, seed, Shards): any worker count produces bit-identical results.
// Replicate stacks that inside internal/mc's seed-stream contract —
// trial-level parallelism outside, station-group parallelism inside, split
// by mc.SplitWorkers — so fleet summaries stay bit-identical at any
// -workers setting while fleets scale to thousands of stations.
package farm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cyclesteal/internal/fault"
	"cyclesteal/internal/mc"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sched"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
	"cyclesteal/internal/stats"
	"cyclesteal/internal/task"
)

// DefaultShards is the group count Farm uses when Shards is 0 (clamped to
// the fleet size). 64 matches internal/mc.Shards: plenty of parallelism for
// any machine the simulations run on, while keeping the barrier's steal scan
// and the per-queue memory trivial even at fleet sizes in the thousands.
const DefaultShards = 64

// Job is one data-parallel computation to farm across the fleet.
type Job struct {
	Tasks []task.Task
}

// TotalWork returns the job's total task time.
func (j Job) TotalWork() quant.Tick { return task.Durations(j.Tasks) }

// StationReport describes one station's contribution to the job.
type StationReport struct {
	Station        int
	Opportunities  int
	LifespanTicks  quant.Tick // Σ U over contracts actually played
	FluidWork      quant.Tick // Σ (t ⊖ c) over completed periods
	TasksCompleted int
	TaskWork       quant.Tick
	Interrupts     int
	IdleTicks      quant.Tick
	KilledTicks    quant.Tick
}

// Result aggregates a farmed job.
type Result struct {
	Stations       []StationReport
	TasksCompleted int
	TaskWork       quant.Tick
	TasksLeft      int
	FluidWork      quant.Tick
	Interrupts     int
	// Steals counts cross-queue task movements: round-barrier migrations
	// and orphaned queues drained back to the fleet. Cross-cluster
	// departures count when they depart.
	Steals int
	// InFlight counts tasks still crossing between clusters when the run
	// ended (a Topology with CrossLatency > 0 only). They never completed,
	// so they are included in TasksLeft.
	InFlight int
	// TasksLost counts tasks destroyed by injected faults (0 without a
	// Faults plan): queues that died with a crashed host and steal parcels
	// lost in transit. Lost tasks are neither completed nor left —
	// TasksCompleted + TasksLeft + TasksLost is the job's task count.
	TasksLost int
}

// CompletionFraction is completed task work over the job's total.
func (r Result) CompletionFraction(j Job) float64 { return r.completionOf(j.TotalWork()) }

// completionOf is CompletionFraction against a precomputed job total.
func (r Result) completionOf(total quant.Tick) float64 {
	if total == 0 {
		return 1
	}
	return float64(r.TaskWork) / float64(total)
}

// Imbalance returns max/mean of per-station completed task work (1 = perfect
// balance); stations that completed nothing are included in the mean.
func (r Result) Imbalance() float64 {
	if len(r.Stations) == 0 {
		return 1
	}
	var sum, max quant.Tick
	for _, s := range r.Stations {
		sum += s.TaskWork
		if s.TaskWork > max {
			max = s.TaskWork
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(r.Stations))
	return float64(max) / mean
}

// Farm binds a fleet to a shared job.
type Farm struct {
	Stations []station.Workstation
	// OpportunitiesPerStation is how many owner contracts each station works
	// through (the job may finish earlier; stations then idle).
	OpportunitiesPerStation int
	// Shards is RunDeterministic's group count: 0 = auto (min(DefaultShards,
	// len(Stations)) queues), 1 = one queue the whole fleet shares, n =
	// exactly n groups (clamped to the fleet size). Station i plays in group
	// i mod groups, so the number is part of the determinism key. Survey
	// ignores it (one group per station).
	Shards int
	// Topology groups the shards into clusters and prices cross-cluster
	// steals (see Topology). The zero value is the flat fleet, bit-identical
	// to a Farm without the field. Must satisfy
	// Topology.Validate(ResolveShards(Shards, len(Stations))); it joins
	// Shards in the determinism key. Survey ignores it (nothing is stolen).
	Topology Topology
	// DisableEpisodeMemo turns off the per-station episode cache (sched.Memo)
	// the engine layers over the scheduler factory. Episodes are pure
	// functions of (p, L) for the keyed schedulers, so results are
	// bit-identical either way — the switch exists for benchmarking and for
	// the tests that pin that equivalence.
	DisableEpisodeMemo bool
	// Checkpoint, when ≥ 1, softens the draconian contract with intra-period
	// checkpointing at the given tick interval: a kill loses only the work
	// since the last completed save instead of the whole period (see
	// sim.Config.Checkpoint for the exact accounting). 0 — the zero value —
	// is the paper's pure draconian contract, bit-identical to a Farm without
	// the field.
	Checkpoint quant.Tick
	// CheckpointSaveCost, when ≥ 1, prices each intra-period checkpoint save
	// separately from the setup cost — the Young/Daly save overhead δ. 0
	// prices saves at the station's setup cost, bit-identical to the
	// behavior before the costs were split (see sim.Config.CheckpointSave).
	CheckpointSaveCost quant.Tick
	// CheckpointRestartCost, when ≥ 1, prices resuming from a saved
	// checkpoint: after a kill that banked saves, the next period reached
	// pays this on top of its setup (see sim.Config.CheckpointRestart). 0
	// makes restarts free, the pre-split behavior.
	CheckpointRestartCost quant.Tick
	// CheckpointAdaptive, when set, overrides Checkpoint per opportunity with
	// Young's rule from the P2P volunteer-computing analysis
	// (arXiv:0711.3949): interval k = round(√(2·s·U/(p+1))), the optimum that
	// balances save overhead s (CheckpointSaveCost, defaulting to the setup
	// cost c) against expected loss per kill. A pure function of the
	// contract, so the determinism contracts are untouched.
	CheckpointAdaptive bool
	// Faults, when active, injects the deterministic fault plan into
	// RunDeterministic: scheduled and sampled station crashes at round tops
	// (Crash semantics: an orphaned group's queue dies with its host, where
	// a graceful Leave drains it back), and cross-cluster parcel loss with
	// round-priced timeout, capped exponential retry backoff, and
	// degradation to intra-cluster scanning when the retry budget is spent.
	// Only RunDeterministic takes faults — a Survey has no round barriers to
	// stamp them onto and rejects active plans — and a batch run rejects a
	// KillRound (there is no log to recover a batch run from; that axis
	// belongs to the resident service). The zero value injects nothing,
	// bit-identical to a Farm without the field.
	Faults fault.Plan
	// Progress, when non-nil, observes a run: RunDeterministic emits a
	// snapshot at every round barrier (where the counts are exact and the
	// callback sequence is itself deterministic), Survey only the final one.
	// Both emit a final snapshot after the last station finishes — including
	// when the run is cancelled or fails, so a shutdown still observes how
	// far the job got. The callback runs on the driving goroutine and must
	// not block for long; observing never affects results.
	Progress func(Progress)
}

// Progress is one observation of a farmed job in flight.
type Progress struct {
	// Completed counts tasks whose completion has settled (the completing
	// station's opportunity ended, so no kill can undo it).
	Completed int
	// Remaining counts tasks not yet completed: unscheduled tasks plus
	// in-flight takes. Completed + Remaining + Lost is the job's task count.
	Remaining int
	// Steals counts cross-queue task migrations so far (0 for unsharded
	// pools).
	Steals int
	// Lost counts tasks destroyed by injected faults so far (0 without a
	// fault plan): crashed hosts' queues and parcels lost in transit.
	Lost int
}

// shardCount resolves the Shards field against the fleet size.
func (f Farm) shardCount() int {
	return ResolveShards(f.Shards, len(f.Stations))
}

// scaledLatency converts the topology's fleet-tick CrossLatency into
// steal-clock units (station-ticks): n stations play concurrently, so one
// fleet-tick of wall time is ≈ n station-ticks of played lifespan.
func (f Farm) scaledLatency() int64 {
	return int64(f.Topology.CrossLatency) * int64(len(f.Stations))
}

// assemble folds station reports into the job-level result.
func (f Farm) assemble(reports []StationReport, left, steals, inflight, lost int) Result {
	res := Result{Stations: reports, TasksLeft: left, Steals: steals, InFlight: inflight, TasksLost: lost}
	for _, r := range reports {
		res.TasksCompleted += r.TasksCompleted
		res.TaskWork += r.TaskWork
		res.FluidWork += r.FluidWork
		res.Interrupts += r.Interrupts
	}
	return res
}

// stationScratch is the per-station reusable state the engine threads
// through playOpportunity: the simulator's episode/task buffers and the
// episode memo the scheduler factory's output is bound to. One goroutine
// owns a scratch at a time (round barriers, or a survey's single hand-off,
// order the handoffs between workers).
type stationScratch struct {
	bufs sim.Buffers
	memo *sched.Memo // nil when DisableEpisodeMemo
}

// playOpportunity samples one owner contract and simulates it against the
// station's task source — the inner step of every way a Core is played.
func (f *Farm) playOpportunity(rep *StationReport, ws station.Workstation, rng *rand.Rand, factory station.SchedulerFactory, src sim.TaskSource, scr *stationScratch) error {
	contract := ws.Owner.Sample(rng)
	if contract.U < 1 {
		return nil
	}
	s, err := factory(ws, contract)
	if err != nil {
		return fmt.Errorf("farm: station %d: %w", ws.ID, err)
	}
	if scr.memo != nil {
		// Bind the factory's scheduler to the station's episode cache: for
		// keyed schedulers (pure functions of (p, L) at fixed c) the cache
		// stays warm across contracts, so repeated residual lifespans skip
		// the episode construction entirely.
		s = scr.memo.Bind(s)
	}
	adv := ws.Owner.Interrupter(rng, contract)
	ck := f.Checkpoint
	if f.CheckpointAdaptive {
		save := f.CheckpointSaveCost
		if save < 1 {
			save = ws.Setup
		}
		ck = adaptiveCheckpoint(save, contract)
	}
	r, err := sim.Run(s, adv, sim.Opportunity{U: contract.U, P: contract.P, C: ws.Setup}, sim.Config{
		Bag:               src,
		Buffers:           &scr.bufs,
		Checkpoint:        ck,
		CheckpointSave:    f.CheckpointSaveCost,
		CheckpointRestart: f.CheckpointRestartCost,
	})
	if err != nil {
		return fmt.Errorf("farm: station %d: %w", ws.ID, err)
	}
	rep.Opportunities++
	rep.LifespanTicks += contract.U
	rep.FluidWork += r.Work
	rep.TasksCompleted += r.TasksCompleted
	rep.TaskWork += r.TaskWork
	rep.Interrupts += r.Interrupts
	rep.IdleTicks += r.IdleTicks
	rep.KilledTicks += r.KilledTicks
	return nil
}

// adaptiveCheckpoint is Young's rule specialized to the contract: with save
// cost s (CheckpointSaveCost when split, otherwise the setup cost — a
// checkpoint then writes the same state a setup restores), lifespan U and
// kill risk rising in p, the loss-minimizing interval is
// √(2·s·(mean time between failures)) ≈ √(2·s·U/(p+1)). Cheaper saves pull
// the interval down (checkpoint more often); the restart cost does not
// enter — Young's first-order optimum prices the save overhead against the
// expected loss, and restart is paid per kill regardless of the interval.
// Clamped to ≥ 1 so an adaptive run always checkpoints — the caller asked
// for bounded loss.
func adaptiveCheckpoint(s quant.Tick, contract station.Contract) quant.Tick {
	k := quant.Tick(math.Round(math.Sqrt(2 * float64(s) * float64(contract.U) / float64(contract.P+1))))
	if k < 1 {
		k = 1
	}
	return k
}

// RunDeterministic farms the job with fully reproducible semantics at any
// worker count — the engine Replicate runs inside the mc trial pool.
//
// Stations are partitioned into shardCount() groups (station i in group i
// mod groups), each group owning one local task queue dealt round-robin from
// the job. Execution proceeds in synchronized rounds, one opportunity per
// station per round: within a round, groups go to workers players, the
// calling goroutine among them, and each group plays its stations
// *sequentially* against its own queue, so no queue is ever touched by two
// goroutines; at the round barrier, empty queues steal half the tasks of the
// first non-empty victim in deterministic cyclic group order — under a
// Topology, first within their own cluster, then (only when the cluster
// arrived collectively dry) across clusters, where a CrossLatency > 0 steal
// departs into a flight ledger and lands at the first barrier whose steal
// clock (Σ lifespans played) has reached its maturity. Stations stop
// borrowing when a barrier finds the whole job done (in-flight tasks count
// as not done; nothing is mid-opportunity when the done-check runs).
// Killed-period tasks return to the front of the running group's own queue,
// where they stay next in line.
//
// Every mutation is therefore ordered by (round, group, station index) — a
// pure function of (fleet, job, factory, seed, Shards). workers ≤ 0 means
// GOMAXPROCS; like mc.Config.Workers it changes wall-clock time only, never
// a bit of the result. Cancelling ctx stops every group at its next station
// boundary and returns ctx.Err(); a Progress observer fires at each round
// barrier, where the counts are exact and the callback sequence is itself a
// pure function of the same key.
func (f Farm) RunDeterministic(ctx context.Context, job Job, factory station.SchedulerFactory, seed int64, workers int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(f.Stations)
	if n == 0 {
		return Result{}, fmt.Errorf("farm: empty fleet")
	}
	rounds := f.rounds()
	groups := f.shardCount()
	if err := f.Topology.Validate(groups); err != nil {
		return Result{}, err
	}
	if f.Faults.Active() {
		if err := f.Faults.Validate(); err != nil {
			return Result{}, err
		}
		if f.Faults.KillRound > 0 {
			return Result{}, fmt.Errorf("farm: a batch run cannot recover a scheduler kill (no write-ahead log); KillRound belongs to the resident service")
		}
	}

	// The batch drivers are thin shells over the event-driven Core: join the
	// whole fleet up front, deal the job in, play bounded rounds. No churn,
	// no completion tracking — the Core's fast paths reduce exactly to the
	// original round engine.
	core := f.NewCore(factory, seed, groups, n, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddTasks(job.Tasks)
	if f.Faults.Active() {
		// The plan's own seed wins; a zero-seed plan derives its draw stream
		// from the run seed, so replication stays replayable per trial.
		core.SetFaults(f.Faults.NewInjector(seed ^ FaultSeedSalt))
	}

	emitted := false // a round barrier has reported progress
	for round := 0; round < rounds; round++ {
		if core.Pending() == 0 {
			break // every task completed; no point borrowing more time
		}
		core.ApplyFaults(round)
		if core.Live() == 0 {
			break // the whole fleet crashed; nobody left to play
		}
		if err := core.PlayRound(ctx, workers); err != nil {
			if f.Progress != nil {
				// The final-snapshot promise holds on failure too: stations
				// stop at opportunity boundaries (killed takes already
				// returned), so the counts are exact and a shutting-down
				// caller still observes how far the job got.
				f.Progress(core.Snapshot())
			}
			return Result{}, err
		}
		// Round-barrier progress: nothing is mid-opportunity here, so the
		// unscheduled count (queued + in flight) is exactly the
		// not-yet-completed count and the snapshot sequence is a pure
		// function of the determinism key.
		if f.Progress != nil {
			f.Progress(core.Snapshot())
			emitted = true
		}
	}

	if f.Progress != nil && !emitted {
		// Runs that never reach a round barrier (an already-done or empty
		// job) still promise one final snapshot; every other run's last
		// barrier already reported this exact state.
		f.Progress(core.Snapshot())
	}
	return core.Result(), nil
}

// rounds is the opportunities each station works through (at least one).
func (f Farm) rounds() int { return max(f.OpportunitiesPerStation, 1) }

// Survey plays the fleet survey: the job is dealt round-robin into one
// private queue per station (task i to station i mod n), nothing is shared
// or stolen, and every station works through all OpportunitiesPerStation
// contracts whether or not its queue drains — fluid work keeps banking, so
// utilization is the figure of merit. An empty job surveys fluid work only.
//
// It runs on the Core with one group per station. Groups that share nothing
// need no round barriers, so each worker plays a station's whole horizon in
// one hand-off (Core.PlayHorizon). Every station's result is a pure function
// of (seed, station ID, its hand), so the Result is bit-identical at any
// workers (≤ 0 means GOMAXPROCS). Shards and Topology do not apply; active
// fault plans are rejected — there are no barriers to stamp faults onto.
// When several stations fail, the error joins every failure in station
// order. Cancelling ctx stops every station at its next opportunity
// boundary and returns ctx.Err(). A Progress observer sees one final
// snapshot, on failure too.
func (f Farm) Survey(ctx context.Context, job Job, factory station.SchedulerFactory, seed int64, workers int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(f.Stations)
	if n == 0 {
		return Result{}, fmt.Errorf("farm: empty fleet")
	}
	if f.Faults.Active() {
		return Result{}, fmt.Errorf("farm: a survey cannot inject faults (no round barriers to stamp them onto); use RunDeterministic")
	}
	f.Topology = Topology{}
	core := f.NewCore(factory, seed, n, n, false)
	for _, ws := range f.Stations {
		core.Join(ws)
	}
	core.AddTasks(job.Tasks)
	err := core.PlayHorizon(ctx, f.rounds(), workers)
	if f.Progress != nil {
		f.Progress(core.Snapshot())
	}
	if err != nil {
		return Result{}, err
	}
	return core.Result(), nil
}

// FaultSeedSalt derives a run's default fault-draw stream from its seed when
// the plan does not carry its own: distinct from the station streams (keyed
// by (seed, ID)) and the service's churn stream, so arming an inert plan
// never perturbs a single existing draw.
const FaultSeedSalt = 0x6661756c74 // "fault"

// Replication metric indexes: the order of the summaries Replicate returns.
const (
	MetricTasksCompleted = iota // tasks completed fleet-wide
	MetricCompletionFrac        // completed task work / job total, in [0, 1]
	MetricFluidWork             // Σ (t ⊖ c) over completed periods, ticks
	MetricKilledTicks           // lifespan destroyed by draconian kills, ticks
	MetricInterrupts            // interrupts fleet-wide
	MetricImbalance             // max/mean per-station completed task work
	MetricSteals                // cross-queue task migrations per trial
	MetricTasksInFlight         // tasks still crossing clusters at trial end
	MetricTasksLost             // tasks destroyed by injected faults per trial
	NumMetrics
)

// Replicate replays the farmed job cfg.Trials times on the internal/mc
// replication engine and returns one summary per metric, indexed by the
// Metric* constants. The worker budget (cfg.Workers; 0 = GOMAXPROCS) is
// split by mc.SplitWorkers into a two-level pool: trial-level parallelism
// outside (saturated first — it needs no coordination) and station-group
// parallelism inside each trial via RunDeterministic, so a thousand-station
// fleet exploits the machine even at low trial counts. Trial i derives its
// farm seed from the engine's deterministic stream for cfg.Seed+i, both
// levels are free of result-affecting scheduling, and the summaries are
// therefore bit-identical at any worker budget.
func (f Farm) Replicate(ctx context.Context, job Job, factory station.SchedulerFactory, cfg mc.Config) ([]stats.Summary, error) {
	cfg, inner := mc.SplitConfig(cfg)
	return mc.RunVec(ctx, cfg, NumMetrics, f.trialVec(ctx, job, factory, inner, false))
}

// trialVec builds the one replication trial closure every farm study —
// whole-run, per-station, or shard-subset — executes, so the distributed
// and single-process paths cannot drift apart. stationCols widens the
// metric vector with one played-lifespan column per station.
func (f Farm) trialVec(ctx context.Context, job Job, factory station.SchedulerFactory, inner int, stationCols bool) mc.VecFunc {
	trial := f
	trial.Progress = nil // per-trial round barriers are not job progress
	cols := f.ReplicateColumns(stationCols)
	total := job.TotalWork()
	return func(rng *rand.Rand) ([]float64, error) {
		res, err := trial.RunDeterministic(ctx, job, factory, rng.Int63(), inner)
		if err != nil {
			return nil, err
		}
		out := make([]float64, cols)
		fillMetrics(out, res, total)
		if stationCols {
			for i, s := range res.Stations {
				out[NumMetrics+i] = float64(s.LifespanTicks)
			}
		}
		return out, nil
	}
}

// ReplicateColumns is the metric-vector width of a replication trial: the
// Metric* columns, plus one per-station lifespan column each when
// stationCols is set.
func (f Farm) ReplicateColumns(stationCols bool) int {
	if stationCols {
		return NumMetrics + len(f.Stations)
	}
	return NumMetrics
}

// ReplicateShards runs just the named mc shards of the replication study and
// returns their partial accumulators — the farm-level face of the
// distributed replication contract: the same trial closure Replicate (or,
// with stationCols, ReplicateStations) drives, over exactly the trials those
// shards own, so a complete cover merged by mc.MergeShards reproduces the
// single-process summaries bit for bit wherever each subset ran.
func (f Farm) ReplicateShards(ctx context.Context, job Job, factory station.SchedulerFactory, cfg mc.Config, stationCols bool, shardIDs []int) ([]mc.ShardAccums, error) {
	cfg, inner := mc.SplitConfig(cfg)
	fn := f.trialVec(ctx, job, factory, inner, stationCols)
	return mc.RunVecShards(ctx, cfg, f.ReplicateColumns(stationCols), nil,
		func(rng *rand.Rand, _ any) ([]float64, error) { return fn(rng) }, shardIDs)
}

// fillMetrics writes one trial's metric vector into out[:NumMetrics],
// indexed by the Metric* constants; total is the job's total task time.
func fillMetrics(out []float64, res Result, total quant.Tick) {
	var killed quant.Tick
	for _, s := range res.Stations {
		killed += s.KilledTicks
	}
	out[MetricTasksCompleted] = float64(res.TasksCompleted)
	out[MetricCompletionFrac] = res.completionOf(total)
	out[MetricFluidWork] = float64(res.FluidWork)
	out[MetricKilledTicks] = float64(killed)
	out[MetricInterrupts] = float64(res.Interrupts)
	out[MetricImbalance] = res.Imbalance()
	out[MetricSteals] = float64(res.Steals)
	out[MetricTasksInFlight] = float64(res.InFlight)
	out[MetricTasksLost] = float64(res.TasksLost)
}

// ReplicateStations is Replicate widened with per-station columns: alongside
// the job-level metric summaries it returns one summary per station of that
// station's played lifespan per trial (ticks, indexed like f.Stations) — the
// across-trials distribution of how much time each owner actually donated.
// Same replication engine, same seed-stream contract, one extra column per
// station; bit-identical at any worker budget.
func (f Farm) ReplicateStations(ctx context.Context, job Job, factory station.SchedulerFactory, cfg mc.Config) (metrics, lifespans []stats.Summary, err error) {
	cfg, inner := mc.SplitConfig(cfg)
	sums, err := mc.RunVec(ctx, cfg, f.ReplicateColumns(true), f.trialVec(ctx, job, factory, inner, true))
	if err != nil {
		return nil, nil, err
	}
	return sums[:NumMetrics], sums[NumMetrics:], nil
}

// Survey replication metric indexes: the order of the columns SurveyShards
// accumulates.
const (
	SurveyMetricWork        = iota // fluid work banked fleet-wide, ticks
	SurveyMetricLifespan           // lifespan offered fleet-wide, ticks
	SurveyMetricUtilization        // work / lifespan, in [0, 1]
	SurveyMetricTaskWork           // completed task duration fleet-wide, ticks
	SurveyMetricTasks              // tasks completed fleet-wide
	SurveyMetricInterrupts         // interrupts fleet-wide
	SurveyMetricKilledTicks        // lifespan destroyed by draconian kills, ticks
	NumSurveyMetrics
)

// SurveyShards is ReplicateShards for the fleet survey: trial i plays one
// Survey on the farm seed drawn from the mc stream for cfg.Seed+i, with the
// worker budget split by mc.SplitConfig into trials outside and stations
// inside, and the named shards' partial accumulators (NumSurveyMetrics
// columns) come back for mc.MergeShards. Bit-identical at any worker budget
// and wherever each shard runs.
func (f Farm) SurveyShards(ctx context.Context, job Job, factory station.SchedulerFactory, cfg mc.Config, shardIDs []int) ([]mc.ShardAccums, error) {
	cfg, inner := mc.SplitConfig(cfg)
	trial := f
	trial.Progress = nil // per-trial snapshots are not study progress
	return mc.RunVecShards(ctx, cfg, NumSurveyMetrics, nil, func(rng *rand.Rand, _ any) ([]float64, error) {
		res, err := trial.Survey(ctx, job, factory, rng.Int63(), inner)
		if err != nil {
			return nil, err
		}
		var lifespan, killed quant.Tick
		for _, s := range res.Stations {
			lifespan += s.LifespanTicks
			killed += s.KilledTicks
		}
		out := make([]float64, NumSurveyMetrics)
		out[SurveyMetricWork] = float64(res.FluidWork)
		out[SurveyMetricLifespan] = float64(lifespan)
		if lifespan > 0 {
			out[SurveyMetricUtilization] = float64(res.FluidWork) / float64(lifespan)
		}
		out[SurveyMetricTaskWork] = float64(res.TaskWork)
		out[SurveyMetricTasks] = float64(res.TasksCompleted)
		out[SurveyMetricInterrupts] = float64(res.Interrupts)
		out[SurveyMetricKilledTicks] = float64(killed)
		return out, nil
	}, shardIDs)
}

// TopContributors returns the station IDs sorted by completed task work,
// descending — the fleet-utilization view operators ask for.
func (r Result) TopContributors() []int {
	ids := make([]int, len(r.Stations))
	for i := range r.Stations {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		return r.Stations[ids[a]].TaskWork > r.Stations[ids[b]].TaskWork
	})
	out := make([]int, len(ids))
	for i, idx := range ids {
		out[i] = r.Stations[idx].Station
	}
	return out
}
