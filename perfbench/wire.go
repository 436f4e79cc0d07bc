package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"cyclesteal/distrib"
)

// execWorkers is the fleet-study transport: each connection is this binary
// re-invoked as a distrib worker with GOMAXPROCS=1.
func execWorkers() (distrib.Starter, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return distrib.ExecStarter(func() *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), workerEnv+"=1", "GOMAXPROCS=1")
		return cmd
	}), nil
}

// wireStats observes worker connections: bytes and frames each way, spawn
// time (Start to the worker's hello) and the time from an assignment to its
// first shard frame.
type wireStats struct {
	mu         sync.Mutex
	opened     int
	bytesOut   int64
	bytesIn    int64
	frames     int64
	spawn      timer // ns
	firstShard timer // ns, assign to first shard frame
}

// starter decorates a Starter so its connections report to ws.
func (ws *wireStats) starter(inner distrib.Starter) distrib.Starter {
	return func(ctx context.Context) (io.ReadWriteCloser, error) {
		t0 := time.Now()
		rwc, err := inner(ctx)
		if err != nil {
			return nil, err
		}
		ws.mu.Lock()
		ws.opened++
		ws.mu.Unlock()
		return &wireConn{rwc: rwc, ws: ws, started: t0}, nil
	}
}

// wireConn is one observed connection. Writes come from the coordinator's
// slot goroutine and reads from its reader goroutine, so the frame state is
// guarded by mu.
type wireConn struct {
	rwc     io.ReadWriteCloser
	ws      *wireStats
	started time.Time

	mu        sync.Mutex
	in, out   lineKinds
	assignAt  time.Time
	shardSeen bool
}

func (c *wireConn) Write(b []byte) (int, error) {
	n, err := c.rwc.Write(b)
	now := time.Now()
	c.mu.Lock()
	c.out.feed(b[:n], func(kind string) {
		c.count()
		if kind == distrib.FrameAssign {
			c.assignAt = now
			c.shardSeen = false
		}
	})
	c.mu.Unlock()
	c.ws.mu.Lock()
	c.ws.bytesOut += int64(n)
	c.ws.mu.Unlock()
	return n, err
}

func (c *wireConn) Read(b []byte) (int, error) {
	n, err := c.rwc.Read(b)
	now := time.Now()
	c.mu.Lock()
	c.in.feed(b[:n], func(kind string) {
		c.count()
		ws := c.ws
		ws.mu.Lock()
		defer ws.mu.Unlock()
		switch kind {
		case distrib.FrameHello:
			ws.spawn.add(float64(now.Sub(c.started).Nanoseconds()))
		case distrib.FrameShard:
			if !c.shardSeen && !c.assignAt.IsZero() {
				c.shardSeen = true
				ws.firstShard.add(float64(now.Sub(c.assignAt).Nanoseconds()))
			}
		}
	})
	c.mu.Unlock()
	c.ws.mu.Lock()
	c.ws.bytesIn += int64(n)
	c.ws.mu.Unlock()
	return n, err
}

func (c *wireConn) count() {
	c.ws.mu.Lock()
	c.ws.frames++
	c.ws.mu.Unlock()
}

func (c *wireConn) Close() error { return c.rwc.Close() }

// lineKinds splits a JSONL byte stream into lines and classifies each by
// its frame kind, which the wire encoding writes first:
// {"frame":"<kind>",…}.
type lineKinds struct {
	prefix []byte // the current line's first bytes
}

var framePrefix = []byte(`{"frame":"`)

func (l *lineKinds) feed(b []byte, onLine func(kind string)) {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		chunk := b
		if i >= 0 {
			chunk = b[:i]
		}
		if room := 32 - len(l.prefix); room > 0 {
			l.prefix = append(l.prefix, chunk[:min(room, len(chunk))]...)
		}
		if i < 0 {
			return
		}
		kind := ""
		if rest, ok := bytes.CutPrefix(l.prefix, framePrefix); ok {
			if j := bytes.IndexByte(rest, '"'); j >= 0 {
				kind = string(rest[:j])
			}
		}
		onLine(kind)
		l.prefix = l.prefix[:0]
		b = b[i+1:]
	}
}
