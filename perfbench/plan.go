package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// Topology of the planning workload: BERT-Large as 8 stages x 3 blocks,
// micro-batch 32 on P100s, 4 micro-batches, W=1 — the paper's Figure 10
// scale.
const (
	planStages     = 8
	planBlocks     = 3
	planMicroBatch = 32
	planMicros     = 4
	// planRecheckEvery is how often a decision is ranked twice to check
	// the ranking is a function of its costs.
	planRecheckEvery = 10
	// planSetupBatch is how many set-ups one timing of setup_s covers.
	planSetupBatch = 200
	// perturbation bounds: every cost field is scaled by a factor in
	// [1/perturbMax, perturbMax], log-uniformly.
	perturbMax = 1.25
)

// planner holds the set-up of the planning workload.
type planner struct {
	costs pipeline.StageCosts
	cands []schedule.Candidate
}

func newPlanner() (*planner, error) {
	costs, err := pipeline.CostsFor(pipeline.CostConfig{
		Arch: arch.BERTLarge, BlocksPerStage: planBlocks, MicroBatch: planMicroBatch,
		GPU: hardware.P100, DataParallelWidth: 1,
	})
	if err != nil {
		return nil, err
	}
	cands := schedule.Enumerate(schedule.Space{
		Stages: planStages, MicroBatches: planMicros, DataParallelWidth: 1, MaxRefreshSteps: 4,
	})
	if len(cands) == 0 {
		return nil, errors.New("no schedule candidates")
	}
	return &planner{costs: costs, cands: cands}, nil
}

// perturbed returns the planner's base configuration with every cost field
// scaled by its own factor drawn from rng, the way measured-cost refits
// move them between decisions.
func (p *planner) perturbed(rng *rand.Rand) schedule.Config {
	f := func(v hardware.Microseconds) hardware.Microseconds {
		scale := math.Exp((2*rng.Float64() - 1) * math.Log(perturbMax))
		return hardware.Microseconds(math.Round(float64(v) * scale))
	}
	c := p.costs
	c.Forward, c.Backward = f(c.Forward), f(c.Backward)
	c.CurvatureUnits = append([]hardware.Microseconds(nil), c.CurvatureUnits...)
	c.CurvaturePerMicroBatch = 0
	for i, u := range c.CurvatureUnits {
		c.CurvatureUnits[i] = f(u)
		c.CurvaturePerMicroBatch += c.CurvatureUnits[i]
	}
	c.InversionUnits = append([]hardware.Microseconds(nil), c.InversionUnits...)
	for i, u := range c.InversionUnits {
		c.InversionUnits[i] = f(u)
	}
	c.Precondition, c.OptStep = f(c.Precondition), f(c.OptStep)
	c.SyncGrad, c.SyncCurvature = f(c.SyncGrad), f(c.SyncCurvature)
	return schedule.Config{Method: "1f1b", Stages: planStages, MicroBatches: planMicros, Costs: c, DataParallelWidth: 1}
}

// decisionQuality is the winner's predicted step time as a share of the
// untuned default's (1F1B, K=1, serialized): lower is a better decision.
func decisionQuality(preds []schedule.Prediction) (float64, error) {
	def := schedule.Candidate{Method: "1f1b", RefreshSteps: 1}
	for _, p := range preds {
		if p.Candidate == def {
			return float64(preds[0].StepTime) / float64(p.StepTime), nil
		}
	}
	return 0, errors.New("the default candidate 1f1b/K1 was not ranked")
}

// checkRanking requires the ranking to be sorted by predicted step time,
// fastest first, and the winner's step time to equal a direct
// schedule.Predict of it.
func checkRanking(base schedule.Config, preds []schedule.Prediction) error {
	if !sort.SliceIsSorted(preds, func(i, j int) bool { return preds[i].StepTime < preds[j].StepTime }) {
		return errors.New("the ranking is not sorted by predicted step time")
	}
	direct, err := schedule.Predict(base, preds[0].Candidate)
	if err != nil {
		return fmt.Errorf("predicting the winner %s: %w", preds[0].Candidate, err)
	}
	if direct.StepTime != preds[0].StepTime {
		return fmt.Errorf("winner %s ranked at %dus but Predict gives %dus", preds[0].Candidate, preds[0].StepTime, direct.StepTime)
	}
	return nil
}

// sameRanking compares decision n's ranking with a second ranking of the
// same costs.
func sameRanking(n int, got, again []schedule.Prediction) error {
	if !reflect.DeepEqual(got, again) {
		return fmt.Errorf("decision %d: ranking the same costs twice gave different rankings", n)
	}
	return nil
}

// The profiler label that marks a traced run's decisions, so the checks
// between decisions stay out of the per-decision figures.
const labelKey, labelDecision = "op", "decide"

func runPlan(o options) (*report, error) {
	rep := &report{}
	reps, span := o.setupReps, o.setupSpan
	if o.trace {
		reps, span = 1, 0
	}
	// Set-up takes microseconds: each repetition times planSetupBatch of
	// them in a row.
	setupS, p, err := timedSetup(reps, span, func() (p *planner, err error) {
		for i := 0; i < planSetupBatch && err == nil; i++ {
			p, err = newPlanner()
		}
		return p, err
	}, func(*planner) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS /= planSetupBatch
	rng := newCostRNG(o.seed)
	var qualities []float64

	sampler := newRuntimeSampler()
	var peakLive uint64
	// decide makes one decision on freshly perturbed costs, timed in wall
	// time, and checks it; it returns the decision's time and false when it
	// failed. labelled marks the decision's profiler samples. Every decision
	// starts from a collected heap: the forced GC runs outside the timed
	// call, and the live heap it leaves — what the planner retains between
	// decisions — is the run's peak_heap_mb. (A decision allocates tens of MB
	// of short-lived schedules; the live bytes a mid-decision GC marks depend
	// on how long marking took, which on a shared host swings by a factor of
	// two.)
	decide := func(labelled bool) (time.Duration, bool) {
		base := p.perturbed(rng)
		runtime.GC()
		peakLive = max(peakLive, sampler.read().heapLive)
		var preds []schedule.Prediction
		rank := func() { preds = schedule.RankCandidates(base, p.cands) }
		t0 := time.Now()
		if labelled {
			pprof.Do(context.Background(), pprof.Labels(labelKey, labelDecision), func(context.Context) { rank() })
		} else {
			rank()
		}
		took := time.Since(t0)
		rep.attempted++
		if len(preds) == 0 {
			rep.failed++
			rep.printf("decision %d ranked no candidate", rep.attempted)
			return took, false
		}
		rep.check(checkRanking(base, preds))
		if n := len(qualities); n%planRecheckEvery == 0 {
			rep.check(sameRanking(n, preds, schedule.RankCandidates(base, p.cands)))
		}
		q, err := decisionQuality(preds)
		rep.check(err)
		qualities = append(qualities, q)
		return took, true
	}
	// loop decides until seconds of wall time have passed and the sample
	// minimums are met. It returns the decision times and the phase's wall
	// time.
	loop := func(seconds float64, minSamples, minDecisions int, labelled bool) ([]float64, time.Duration) {
		var samples []float64
		deadline := time.Duration(seconds * float64(time.Second))
		t0 := time.Now()
		for {
			elapsed := time.Since(t0)
			if elapsed >= deadline && len(samples) >= minSamples && len(qualities) >= minDecisions || elapsed >= hardCap {
				return samples, elapsed
			}
			took, ok := decide(labelled)
			if !ok {
				return samples, time.Since(t0)
			}
			samples = append(samples, ms(took))
		}
	}

	if !o.trace {
		samples, wall := loop(o.seconds, o.minSamples, o.planDecisions, false)
		quality := 0.0
		if len(qualities) >= o.planDecisions {
			quality = quantile(qualities[:o.planDecisions], 0.5)
		}
		p50, p90 := quantile(samples, 0.5), windowQuantile(samples, 0.9)
		rate := windowRate(samples, 1)
		rep.add("throughput_per_s", rate, "1/s")
		rep.add("op_ms.p50", p50, "ms")
		rep.add("op_ms.p90", p90, "ms")
		rep.add("quality.final", quality, "score")
		rep.add("peak_heap_mb", float64(peakLive)/(1<<20), "MB")
		rep.add("setup_s", setupS, "s")
		rep.printf("plans_per_s %.3f plans/s over %d decisions of %d candidates in %.1f s (%d beyond p90)",
			rate, len(samples), len(p.cands), wall.Seconds(), countAbove(samples, p90))
		rep.printf("decision_ms.p50 %.3f ms  decision_ms.p90 %.3f ms", p50, p90)
		rep.printf("winner/default predicted step time %.6f (median of the first %d decisions)", quality, o.planDecisions)
		rep.printf("error_rate %.4f (%d failed of %d attempted)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
		return rep, nil
	}

	// Traced run: untraced decisions as the overhead baseline, then the same
	// decisions under a CPU profile, whose labelled samples give the time
	// RankCandidates spends in schedule.Executable and pipeline.Run.
	half := o.seconds / 2
	untraced, _ := loop(half, 1, 0, false)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	before := sampler.read()
	tSamples, _ := loop(half, 1, 0, true)
	after := sampler.read()
	top, err := prof.stop(rep, labelKey+"="+labelDecision)
	if err != nil {
		return nil, err
	}
	n := float64(len(tSamples))
	if n == 0 {
		return nil, errors.New("traced phase made no decisions")
	}
	for _, name := range []string{
		"engine.forward_ms", "engine.backward_ms", "engine.recompute_ms", "engine.idle_ms",
		"engine.overhead_ms", "engine.sync_grad_ms", "kfac.sync_curvature_ms", "kfac.curvature_ms",
		"kfac.inversion_ms", "kfac.precondition_ms", "optim.step_ms", "transport.wait_ms",
	} {
		rep.add(name, 0, "ms")
	}
	for _, name := range []string{"engine.bubble_filled_frac", "schedule.sim_bubble_filled_frac"} {
		rep.add(name, 0, "ratio")
	}
	rep.add("kfac.inverse_age_max", 0, "steps")
	rep.add("transport.calls_per_step", 0, "count")
	rep.add("transport.bytes_per_step", 0, "B")
	rep.add("schedule.executable_ms", top.cum["repro/internal/schedule.Executable"]/n, "ms")
	rep.add("pipeline.run_ms", top.cum["repro/internal/pipeline.Run"]/n, "ms")
	rep.add("schedule.candidates", float64(len(p.cands)), "count")
	runtimeLayer(rep, before, after, len(tSamples))
	u, t := quantile(untraced, 0.5), quantile(tSamples, 0.5)
	rep.add("trace.overhead_frac", t/u-1, "ratio")
	rep.printf("tracing overhead: %.1f%% (decision_ms.p50 untraced %.3f ms, traced %.3f ms)", 100*(t/u-1), u, t)
	return rep, nil
}

// newCostRNG is the source of a run's cost perturbations.
func newCostRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(costSeed(seed), 0)) }
