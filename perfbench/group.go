package main

import (
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// timedGroup decorates one rank's transport.Group for the traced run: it
// counts collective calls, the bytes they report, and the time callers
// spend inside them. It also forwards the optional methods the engine
// probes for (ObserveRoundDuration, RankStats, View), so a traced engine
// takes the same paths as an untraced one over the bare *transport.Ring.
type timedGroup struct {
	*transport.Ring
	calls, bytes, waitNS atomic.Int64
}

func (g *timedGroup) record(t0 time.Time, n int64) {
	g.calls.Add(1)
	g.bytes.Add(n)
	g.waitNS.Add(int64(time.Since(t0)))
}

func (g *timedGroup) AllReduce(name string, dst, base []float64, parts [][]float64) (int64, error) {
	t0 := time.Now()
	n, err := g.Ring.AllReduce(name, dst, base, parts)
	g.record(t0, n)
	return n, err
}

func (g *timedGroup) ReduceScatter(name string, dst, base []float64, parts [][]float64) (int64, error) {
	t0 := time.Now()
	n, err := g.Ring.ReduceScatter(name, dst, base, parts)
	g.record(t0, n)
	return n, err
}

func (g *timedGroup) AllGather(name string, buf []float64) (int64, error) {
	t0 := time.Now()
	n, err := g.Ring.AllGather(name, buf)
	g.record(t0, n)
	return n, err
}

func (g *timedGroup) Broadcast(name string, root int, buf []float64) (int64, error) {
	t0 := time.Now()
	n, err := g.Ring.Broadcast(name, root, buf)
	g.record(t0, n)
	return n, err
}

// groupCounters is one reading of a timedGroup plus the ring's own wire
// counter.
type groupCounters struct {
	calls, bytes, waitNS, wire int64
}

func (g *timedGroup) read() groupCounters {
	return groupCounters{g.calls.Load(), g.bytes.Load(), g.waitNS.Load(), g.Ring.BytesOnWire()}
}

var (
	_ transport.Group                                  = (*timedGroup)(nil)
	_ interface{ ObserveRoundDuration(time.Duration) } = (*timedGroup)(nil)
	_ interface{ RankStats() []transport.RankStat }    = (*timedGroup)(nil)
	_ interface{ View() int64 }                        = (*timedGroup)(nil)
)
