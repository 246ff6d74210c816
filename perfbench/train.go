package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bert"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/kfac"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/transport"
)

// trainSpec fixes one training configuration: model, schedule, data
// parallelism, optimizer and K-FAC.
type trainSpec struct {
	model    bert.Config
	method   string
	stages   int
	micro    int // micro-batches per replica per rank
	ranks    int // 1 = in process; more = ranks joined by a local socket ring
	replicas int // in-process replicas per rank
	batch    int // global batch size (sequences per step)
	kfac     bool
	round    int // RefreshSteps, the steps one TrainRound executes
	workers  int // engine.Config.Workers
}

// trainWorkload is a measured configuration plus the reference the output
// check compares it with: a configuration that differs only along a
// dimension the engine declares bit-identical, so the first steps' losses
// must match exactly.
type trainWorkload struct {
	spec, reference trainSpec
}

// LAMB settings shared by every training workload.
const (
	lambLR          = 3e-3
	lambWeightDecay = 0.01
)

var smallBERT = bert.Config{VocabSize: 1024, DModel: 64, DFF: 256, Heads: 4, Blocks: 2, SeqLen: 32}

var (
	lamb1F1B = trainWorkload{
		spec:      trainSpec{model: smallBERT, method: "1f1b", stages: 2, micro: 4, ranks: 1, replicas: 1, batch: 8, round: 1},
		reference: trainSpec{model: smallBERT, method: "gpipe", stages: 2, micro: 4, ranks: 1, replicas: 1, batch: 8, round: 1},
	}
	pipeFisher1F1B = trainWorkload{
		spec:      trainSpec{model: smallBERT, method: "1f1b", stages: 2, micro: 4, ranks: 1, replicas: 1, batch: 8, kfac: true, round: 2},
		reference: trainSpec{model: smallBERT, method: "1f1b", stages: 2, micro: 4, ranks: 1, replicas: 1, batch: 8, kfac: true, round: 2, workers: 1},
	}
	pipeFisherRing2 = trainWorkload{
		spec:      trainSpec{model: bert.TinyConfig(), method: "1f1b", stages: 2, micro: 2, ranks: 2, replicas: 1, batch: 8, kfac: true, round: 2},
		reference: trainSpec{model: bert.TinyConfig(), method: "1f1b", stages: 2, micro: 2, ranks: 1, replicas: 2, batch: 8, kfac: true, round: 2},
	}
)

// Seeds of the generated inputs, derived from the workload seed.
func modelSeed(seed uint64) uint64  { return mix(seed, 1) }
func corpusSeed(seed uint64) uint64 { return mix(seed, 2) }
func costSeed(seed uint64) uint64   { return mix(seed, 3) }

// mix is splitmix64 over seed and a stream id.
func mix(seed, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// batches generates n training batches from the seed's corpus; a run
// longer than n steps cycles through them.
func (s trainSpec) batches(seed uint64, n int) ([]*data.Batch, error) {
	c, err := data.NewCorpus(s.model.VocabSize, 1.0, corpusSeed(seed))
	if err != nil {
		return nil, err
	}
	n = (n + s.round - 1) / s.round * s.round
	out := make([]*data.Batch, n)
	for i := range out {
		out[i] = c.MakeBatch(s.batch, data.DefaultBatchConfig(s.model.SeqLen))
	}
	return out, nil
}

// rank is one engine with its optimizer.
type rank struct {
	eng    *engine.Engine
	group  *timedGroup // nil unless traced over a ring
	opt    *optim.LAMB
	optDur time.Duration // time spent in the optimizer callback
	wall   time.Duration // wall time of the last TrainRound
	res    []*engine.StepResult
	err    error
}

func (r *rank) trainRound(batches []*data.Batch) {
	t0 := time.Now()
	r.res, r.err = r.eng.TrainRound(batches)
	r.wall = time.Since(t0)
}

// trainer is one training configuration, built.
type trainer struct {
	spec  trainSpec
	ranks []*rank
	rings []*transport.Ring
}

// build constructs the model, engine, optimizer and K-FAC state of every
// rank, dialing the ring first when there is more than one rank. With
// timed set, each rank's group is wrapped in a timedGroup.
func (s trainSpec) build(seed uint64, timed bool) (*trainer, error) {
	tr := &trainer{spec: s, ranks: make([]*rank, s.ranks)}
	if s.ranks > 1 {
		rings, err := transport.NewLocalRing(s.ranks, transport.DefaultChunkFloats)
		if err != nil {
			return nil, fmt.Errorf("dialing the ring: %w", err)
		}
		tr.rings = rings
	}
	errs := make([]error, s.ranks)
	var wg sync.WaitGroup
	for i := range tr.ranks {
		tr.ranks[i] = &rank{}
		var g transport.Group
		if tr.rings != nil {
			g = tr.rings[i]
			if timed {
				tr.ranks[i].group = &timedGroup{Ring: tr.rings[i]}
				g = tr.ranks[i].group
			}
		}
		wg.Add(1)
		// Ranks are built concurrently: engine construction runs a shape
		// handshake over the group.
		go func() {
			defer wg.Done()
			errs[i] = s.buildRank(tr.ranks[i], seed, g)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		tr.close()
		return nil, err
	}
	return tr, nil
}

func (s trainSpec) buildRank(r *rank, seed uint64, g transport.Group) error {
	m, err := bert.New(s.model, modelSeed(seed))
	if err != nil {
		return err
	}
	r.eng, err = engine.NewWithConfig(m, engine.Config{
		Method: s.method, Stages: s.stages, MicroBatches: s.micro, Replicas: s.replicas,
		Transport: g, RefreshSteps: s.round, Workers: s.workers,
	})
	if err != nil {
		return err
	}
	if s.kfac {
		if err := r.eng.EnableKFAC(kfac.DefaultOptions(), s.round); err != nil {
			return err
		}
	}
	r.opt = optim.NewLAMB(m.Params(), lambWeightDecay)
	r.eng.SetOptimizer(func(int) error {
		t0 := time.Now()
		r.opt.Step(lambLR)
		r.optDur += time.Since(t0)
		return nil
	})
	return nil
}

func (tr *trainer) close() {
	for _, r := range tr.rings {
		r.Close()
	}
}

// round trains one round on every rank (concurrently over a ring) and
// returns its per-step losses. It fails if a rank fails, a loss is not
// finite, or the ranks disagree on a loss.
func (tr *trainer) round(batches []*data.Batch) ([]float64, error) {
	if len(tr.ranks) == 1 {
		tr.ranks[0].trainRound(batches)
	} else {
		var wg sync.WaitGroup
		for _, r := range tr.ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.trainRound(batches)
			}()
		}
		wg.Wait()
	}
	for i, r := range tr.ranks {
		if r.err != nil {
			return nil, fmt.Errorf("rank %d: %w", i, r.err)
		}
	}
	losses := make([]float64, len(batches))
	for j, res := range tr.ranks[0].res {
		losses[j] = res.Loss.Total
		if math.IsNaN(losses[j]) || math.IsInf(losses[j], 0) {
			return nil, fmt.Errorf("step loss %v is not finite", losses[j])
		}
		for i, r := range tr.ranks[1:] {
			if got := r.res[j].Loss.Total; got != losses[j] {
				return nil, fmt.Errorf("rank %d loss %v != rank 0 loss %v", i+1, got, losses[j])
			}
		}
	}
	return losses, nil
}

// runner trains one trainer through a run: it owns the loss history and
// the position in the batch cycle.
type runner struct {
	tr      *trainer
	batches []*data.Batch
	losses  []float64
	rep     *report
	// sampler reads the live heap after every round; peakLive is the
	// highest reading.
	sampler  *runtimeSampler
	peakLive uint64
}

// step trains one round, counting it as an operation. It returns the
// round's wall time and false when the round failed.
func (s *runner) step() (time.Duration, bool) {
	k := s.tr.spec.round
	i := len(s.losses) % len(s.batches)
	t0 := time.Now()
	l, err := s.tr.round(s.batches[i : i+k])
	wall := time.Since(t0)
	s.rep.attempted++
	if err != nil {
		s.rep.failed++
		s.rep.printf("round at step %d failed: %v", len(s.losses), err)
		return wall, false
	}
	s.losses = append(s.losses, l...)
	s.peakLive = max(s.peakLive, s.sampler.read().heapLive)
	return wall, true
}

// timed trains warm rounds untimed, then rounds until the deadline has
// passed and the run has made at least minSamples rounds and minSteps
// steps (bounded by a hard cap), calling each after every timed round. It
// returns per-step latency samples (round wall time / K) and the timed
// wall time.
func (s *runner) timed(seconds float64, warm, minSamples, minSteps int, each func()) ([]float64, time.Duration) {
	for i := 0; i < warm; i++ {
		if _, ok := s.step(); !ok {
			return nil, 0
		}
	}
	k := float64(s.tr.spec.round)
	deadline := time.Duration(seconds * float64(time.Second))
	var samples []float64
	t0 := time.Now()
	for {
		elapsed := time.Since(t0)
		if elapsed >= deadline && len(samples) >= minSamples && len(s.losses) >= minSteps {
			return samples, elapsed
		}
		if elapsed >= hardCap {
			s.rep.printf("stopped at the %v cap with %d samples", hardCap, len(samples))
			return samples, elapsed
		}
		wall, ok := s.step()
		if !ok {
			return samples, time.Since(t0)
		}
		samples = append(samples, ms(wall)/k)
		if each != nil {
			each()
		}
	}
}

// hardCap bounds a measured phase whatever the sample minimums ask for, so
// a run ends within the 180 s it may take even on a host several times
// slower than usual.
const hardCap = 60 * time.Second

// warmRounds are trained before a phase's timing starts: the first rounds
// fill the engine's pools and the kernels' caches.
const warmRounds = 2

func runTrain(w trainWorkload, o options) (*report, error) {
	rep := &report{}
	batches, err := w.spec.batches(o.seed, o.lossSteps)
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := traceTrain(w, o, rep, batches); err != nil {
			return nil, err
		}
		return rep, nil
	}
	setupS, tr, err := timedSetup(o.setupReps, o.setupSpan, func() (*trainer, error) { return w.spec.build(o.seed, false) }, (*trainer).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer tr.close()
	s := &runner{tr: tr, batches: batches, rep: rep, sampler: newRuntimeSampler()}
	samples, wall := s.timed(o.seconds, warmRounds, o.minSamples, o.lossSteps, nil)
	rep.check(referenceCheck(w.reference, o, s.losses))
	quality := 0.0
	if len(s.losses) >= o.lossSteps {
		quality = mean(s.losses[o.lossSteps-lossWindow : o.lossSteps])
	}
	p50, p90 := quantile(samples, 0.5), windowQuantile(samples, 0.9)
	rate := windowRate(samples, float64(w.spec.batch))
	rep.add("throughput_per_s", rate, "1/s")
	rep.add("op_ms.p50", p50, "ms")
	rep.add("op_ms.p90", p90, "ms")
	rep.add("quality.final", quality, "score")
	rep.add("peak_heap_mb", float64(s.peakLive)/(1<<20), "MB")
	rep.add("setup_s", setupS, "s")
	rep.printf("seqs_per_s %.3f seqs/s over %d timed steps in %.1f s (%d samples, %d beyond p90)",
		rate, len(samples)*w.spec.round, wall.Seconds(), len(samples), countAbove(samples, p90))
	rep.printf("step_ms.p50 %.3f ms  step_ms.p90 %.3f ms", p50, p90)
	rep.printf("loss.final %.6f nats (mean of steps %d-%d)", quality, o.lossSteps-lossWindow+1, o.lossSteps)
	rep.printf("error_rate %.4f (%d failed of %d attempted)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	return rep, nil
}

// traceTrain is the traced run: an untraced half as the overhead baseline,
// then a traced half on a fresh trainer of the same seed, built once the
// first one is released.
func traceTrain(w trainWorkload, o options, rep *report, batches []*data.Batch) error {
	half := o.seconds / 2
	untraced, err := untracedHalf(w, o, rep, batches, half)
	if err != nil {
		return err
	}
	traced, err := w.spec.build(o.seed, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()
	ts := &runner{tr: traced, batches: batches, rep: rep, sampler: newRuntimeSampler()}
	acc := &layerAcc{}
	for i := 0; i < warmRounds; i++ {
		ts.step()
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	before, gBefore, optBefore := ts.sampler.read(), traced.groupCounters(), traced.optTime()
	tSamples, tWall := ts.timed(half, 0, 1, 0, func() { acc.addRound(traced) })
	after, gAfter, optAfter := ts.sampler.read(), traced.groupCounters(), traced.optTime()
	if _, err := prof.stop(rep, ""); err != nil {
		return err
	}
	steps := float64(len(tSamples) * w.spec.round)
	if steps == 0 {
		return errors.New("traced phase trained no steps")
	}
	simFilled, simMS, err := simulatedFill(traced)
	if err != nil {
		return err
	}
	acc.report(rep, steps, len(traced.ranks))
	rep.add("schedule.sim_bubble_filled_frac", simFilled, "ratio")
	rep.add("optim.step_ms", ms(optAfter-optBefore)/steps, "ms")
	rep.add("transport.calls_per_step", float64(gAfter.calls-gBefore.calls)/steps, "count")
	rep.add("transport.bytes_per_step", float64(gAfter.bytes-gBefore.bytes)/steps, "B")
	rep.add("transport.wait_ms", ms(time.Duration(gAfter.waitNS-gBefore.waitNS))/steps, "ms")
	rep.add("schedule.executable_ms", 0, "ms")
	rep.add("pipeline.run_ms", simMS, "ms")
	rep.add("schedule.candidates", 0, "count")
	runtimeLayer(rep, before, after, int(steps))
	if len(traced.rings) > 0 {
		rep.check(wireCheck(gAfter.bytes-gBefore.bytes, gAfter.wire-gBefore.wire, tWall, len(traced.ranks)))
	}
	uRate := windowRate(untraced, float64(w.spec.batch))
	tRate := windowRate(tSamples, float64(w.spec.batch))
	rep.add("trace.overhead_frac", 1-tRate/uRate, "ratio")
	rep.printf("bubble fill: executed %.4f  simulated %.4f", acc.filledFrac(), simFilled)
	rep.printf("tracing overhead: %.1f%% (untraced %.3f seqs/s, traced %.3f seqs/s)", 100*(1-tRate/uRate), uRate, tRate)
	return nil
}

// untracedHalf trains the first half of a traced run on an untraced
// trainer, checks its losses against the reference and releases it.
func untracedHalf(w trainWorkload, o options, rep *report, batches []*data.Batch, seconds float64) ([]float64, error) {
	tr, err := w.spec.build(o.seed, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer tr.close()
	s := &runner{tr: tr, batches: batches, rep: rep, sampler: newRuntimeSampler()}
	samples, _ := s.timed(seconds, warmRounds, 1, o.refSteps, nil)
	rep.check(referenceCheck(w.reference, o, s.losses))
	return samples, nil
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// referenceCheck trains the reference configuration for o.refSteps steps
// from o.refSeed and requires its losses to equal got's first ones bit for
// bit.
func referenceCheck(ref trainSpec, o options, got []float64) error {
	if len(got) < o.refSteps {
		return fmt.Errorf("run trained %d steps, fewer than the %d the reference check compares", len(got), o.refSteps)
	}
	batches, err := ref.batches(o.refSeed, o.refSteps)
	if err != nil {
		return err
	}
	tr, err := ref.build(o.refSeed, false)
	if err != nil {
		return fmt.Errorf("building the reference: %w", err)
	}
	defer tr.close()
	var want []float64
	for len(want) < o.refSteps {
		l, err := tr.round(batches[len(want) : len(want)+ref.round])
		if err != nil {
			return fmt.Errorf("reference round: %w", err)
		}
		want = append(want, l...)
	}
	for i := 0; i < o.refSteps; i++ {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("step %d loss %v differs from the reference's %v", i, got[i], want[i])
		}
	}
	return nil
}

// wireCheck requires the bytes the collectives reported to match the
// rings' own wire counters. The rings also send heartbeat frames, a few
// dozen bytes each, every DefaultHeartbeatInterval per rank and hop; the
// difference may not exceed that allowance.
func wireCheck(collective, wire int64, wall time.Duration, ranks int) error {
	beats := int64(wall/transport.DefaultHeartbeatInterval) + 2
	allowance := 256 * beats * int64(ranks*ranks)
	if d := wire - collective; d < 0 || d > allowance {
		return fmt.Errorf("collectives reported %d bytes but the rings sent %d (allowance for heartbeats %d)", collective, wire, allowance)
	}
	return nil
}

// optTime is the time all ranks have spent in the optimizer callback.
func (tr *trainer) optTime() time.Duration {
	var d time.Duration
	for _, r := range tr.ranks {
		d += r.optDur
	}
	return d
}

func (tr *trainer) groupCounters() groupCounters {
	var c groupCounters
	for _, r := range tr.ranks {
		if r.group != nil {
			g := r.group.read()
			c.calls += g.calls
			c.bytes += g.bytes
			c.waitNS += g.waitNS
			c.wire += g.wire
		}
	}
	return c
}

// simulatedFill simulates every rank's executable schedule with
// pipeline.Run and returns the bubble share refresh work fills there, and
// the mean time one simulation took.
func simulatedFill(tr *trainer) (float64, float64, error) {
	var filled, bubble float64
	var took time.Duration
	for _, r := range tr.ranks {
		t0 := time.Now()
		tl, err := pipeline.Run(r.eng.Schedule())
		took += time.Since(t0)
		if err != nil {
			return 0, 0, fmt.Errorf("simulating the executed schedule: %w", err)
		}
		f, b := bubbleShares(tl)
		filled += f
		bubble += b
	}
	return ratio(filled, bubble), ms(took) / float64(len(tr.ranks)), nil
}

// bubbleShares returns the refresh-filled and total bubble time of a
// timeline, summed over its devices.
func bubbleShares(tl *pipeline.Timeline) (filled, bubble float64) {
	span := float64(tl.Makespan)
	for _, u := range trace.BubbleUtilization(tl) {
		filled += u.RefreshFilled * span
		bubble += (u.RefreshFilled + u.Idle) * span
	}
	return filled, bubble
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerAcc accumulates the executed timelines of the traced rounds.
type layerAcc struct {
	kindUS             map[pipeline.WorkKind]float64 // device time, all devices of all ranks
	idleUS, overheadUS float64
	filled, bubble     float64
	ageMax             int
}

func (a *layerAcc) addRound(tr *trainer) {
	if a.kindUS == nil {
		a.kindUS = map[pipeline.WorkKind]float64{}
	}
	for _, r := range tr.ranks {
		tl := r.eng.LastTimeline()
		for _, evs := range tl.Events {
			var busy float64
			for _, e := range evs {
				a.kindUS[e.Op.Kind] += float64(e.Duration())
				busy += float64(e.Duration())
			}
			a.idleUS += math.Max(0, float64(tl.Makespan)-busy)
		}
		a.overheadUS += float64(r.wall.Microseconds()) - float64(tl.Makespan)
		f, b := bubbleShares(tl)
		a.filled += f
		a.bubble += b
		for st := 0; st < r.eng.Stages(); st++ {
			if p := r.eng.KFACStates(st); p != nil && p.MaxInverseAge() > a.ageMax {
				a.ageMax = p.MaxInverseAge()
			}
		}
	}
}

func (a *layerAcc) filledFrac() float64 { return ratio(a.filled, a.bubble) }

// report adds the timeline metrics: device time per step summed over
// devices (and ranks), overhead per step averaged over ranks.
func (a *layerAcc) report(rep *report, steps float64, ranks int) {
	perStep := func(us float64) float64 { return us / 1000 / steps }
	rep.add("engine.forward_ms", perStep(a.kindUS[pipeline.Forward]), "ms")
	rep.add("engine.backward_ms", perStep(a.kindUS[pipeline.Backward]), "ms")
	rep.add("engine.recompute_ms", perStep(a.kindUS[pipeline.Recompute]), "ms")
	rep.add("engine.idle_ms", perStep(a.idleUS), "ms")
	rep.add("engine.bubble_filled_frac", a.filledFrac(), "ratio")
	rep.add("engine.overhead_ms", perStep(a.overheadUS)/float64(ranks), "ms")
	rep.add("engine.sync_grad_ms", perStep(a.kindUS[pipeline.SyncGrad]), "ms")
	rep.add("kfac.sync_curvature_ms", perStep(a.kindUS[pipeline.SyncCurvature]), "ms")
	rep.add("kfac.curvature_ms", perStep(a.kindUS[pipeline.Curvature]), "ms")
	rep.add("kfac.inversion_ms", perStep(a.kindUS[pipeline.Inversion]), "ms")
	rep.add("kfac.precondition_ms", perStep(a.kindUS[pipeline.Precondition]), "ms")
	rep.add("kfac.inverse_age_max", float64(a.ageMax), "steps")
}
