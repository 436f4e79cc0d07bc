package main

import (
	"math/rand"
	"time"

	"cyclesteal/internal/model"
	"cyclesteal/internal/quant"
	"cyclesteal/internal/sim"
	"cyclesteal/internal/station"
)

// timedSched decorates an episode scheduler (the memo-bound one the
// simulator drives) with a per-call timer and a count of the periods it
// schedules. One goroutine owns it.
type timedSched struct {
	inner   model.EpisodeScheduler
	h       timer
	periods int64
}

func (t *timedSched) Episode(p int, L quant.Tick) model.TickSchedule {
	return t.AppendEpisode(nil, p, L)
}

func (t *timedSched) AppendEpisode(dst model.TickSchedule, p int, L quant.Tick) model.TickSchedule {
	t0 := time.Now()
	n := len(dst)
	out := model.AppendEpisode(t.inner, dst, p, L)
	t.h.addSince(t0)
	t.periods += int64(len(out) - n)
	return out
}

// timedOwner decorates a station's owner model with a timer around
// contract sampling. Stations of one group play sequentially and groups
// never share a station, so each decorator is owned by one goroutine at a
// time (round barriers order the handoffs).
type timedOwner struct {
	inner station.OwnerModel
	h     timer
}

func (t *timedOwner) Sample(rng *rand.Rand) station.Contract {
	t0 := time.Now()
	c := t.inner.Sample(rng)
	t.h.addSince(t0)
	return c
}

func (t *timedOwner) Interrupter(rng *rand.Rand, c station.Contract) sim.Interrupter {
	return t.inner.Interrupter(rng, c)
}

func (t *timedOwner) Name() string { return t.inner.Name() }
