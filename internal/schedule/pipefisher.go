// Package schedule implements PipeFisher's automatic work assignment
// (§3.1 of the paper): it packs the K-FAC curvature and inversion work of
// one refresh round into the bubbles of a profiled pipeline timeline
// according to the paper's dependency rules and emits the result as an
// executable op list (Executable) that the timing simulator and the
// engine's executor both run. Assign and AdaptiveRoundLength measure the
// same form: the shortest round whose bubbles hold one refresh, its
// executed step time, and the resulting accelerator utilization.
//
// The three assignment rules (§3.1):
//
//  1. Curvature work for A_l (resp. B_l) of a micro-batch is assigned to a
//     bubble after the forward (resp. backward) of that micro-batch on the
//     layer's stage.
//  2. Inversion work for a factor is assigned after the curvature work of
//     that factor for all micro-batches.
//  3. Precondition work runs after the backward of all layers in a stage
//     and before the next pipeline step (inserted into the schedule itself
//     via pipeline.BuildConfig.IncludePrecondition — it is the only
//     per-step overhead).
//
// Work whose duration exceeds a bubble spills into subsequent bubbles,
// exactly as the paper describes ("otherwise, subsequent bubbles are
// utilized"), unless Config.NoSplit asks for whole-bubble placement. The
// packer only chooses each item's position in its device's op order; the
// item then runs as one op, so a spilled item delays the base ops it
// straddles, and the executed timeline shows that cost.
package schedule

import (
	"fmt"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// FactorKind distinguishes the two Kronecker factors of a layer.
type FactorKind int

// Factor kinds.
const (
	FactorA FactorKind = iota // A_l = ⟨a a^T⟩, ready after forward
	FactorB                   // B_l = ⟨e e^T⟩, ready after backward
)

// Config controls the PipeFisher assignment.
type Config struct {
	// Method selects the base pipeline schedule: "gpipe", "1f1b",
	// "chimera".
	Method string
	// Stages, MicroBatches mirror pipeline.BuildConfig.
	Stages       int
	MicroBatches int
	// Costs provides all work durations.
	Costs pipeline.StageCosts
	// DataParallelWidth is W, the data-parallel replica count: replica
	// streams per stage for gpipe/1f1b, whole bidirectional pipeline
	// pairs for chimera.
	DataParallelWidth int
	// InversionParallel splits each stage's inversion units across the
	// devices holding that stage (the replica group for gpipe/1f1b, the
	// bidirectional pair for chimera) and adds sync-curvature collectives.
	InversionParallel bool
	// InversionCostMultiplier scales the per-factor inversion durations
	// (default 1). Shampoo-style extra work (§5) uses this to model
	// eigendecompositions, which cost an order of magnitude more than a
	// Cholesky inversion of the same matrix; the packer positions such long
	// items by splitting them across bubbles, and each still runs as one op.
	InversionCostMultiplier float64
	// RefreshSteps is the round length K of the *executable* form: Executable
	// lays out K consecutive pipeline steps and packs one curvature/inversion
	// refresh into the bubbles of the whole window, the paper's multi-step
	// refresh rounds (§3.1 reports 1-4 steps per refresh). 0 or 1 yields the
	// degenerate one-step round. Assign and AdaptiveRoundLength ignore it:
	// they search for the smallest round length whose serialized executable
	// form holds the refresh, while Executable *takes* the round length as
	// given.
	RefreshSteps int
	// FrontLoadRefresh pins every item of the refresh to the window's first
	// step: packed into that step's bubbles where they fit, spilled right
	// before its tail otherwise — the legacy skip-cadence placement
	// expressed as a round (steps 1..K-1 of the window run fully stale with
	// the just-refreshed inverses). The default (false) spreads the refresh
	// across the whole window's bubbles, the paper's multi-step schedule
	// shape, in which each step preconditions with the freshest inverses
	// completed by that step. Front-loaded rounds are bit-identical to the
	// skip cadence at the same refresh interval, which the engine's
	// round-vs-skip identity tests exploit.
	FrontLoadRefresh bool
	// Overlap lets consecutive refresh windows overlap (Executable only):
	// refresh work that does not fit its own window's bubbles is not
	// serialized before the window's tail but *carried* — emitted as
	// generation-lagged ops (pipeline.Op.Generation = 1) that execute in
	// the early bubbles of the window, operating on the PREVIOUS window's
	// statistics generation, exactly where a serialized round would idle
	// (the first steps' bubbles open before the window's own statistics
	// exist). The carry set is computed as a fixed point so the steady-state
	// window is self-consistent: what spills out of this window is what the
	// next window's early bubbles absorb. When everything fits, the overlap
	// schedule is identical to the serialized one. Incompatible with
	// FrontLoadRefresh.
	Overlap bool
	// CarryDepth bounds how many consecutive windows one refresh may
	// pipeline across under Overlap: Op.Generation values run
	// 0..CarryDepth-1, where generation g ops execute g windows after
	// their statistics were collected. 0 defaults to 2 — the classic
	// overlap shape (own window plus one carried window). Depths > 2 give
	// the packer headroom when a refresh exceeds two windows' bubbles:
	// work that would otherwise serialize before the round's tail keeps
	// pipelining into the following windows' early bubbles instead. The
	// per-window work is unchanged — deeper carry only adds placement
	// freedom. Ignored without Overlap.
	CarryDepth int
	// MaxSteps bounds the number of pipeline steps one refresh round may
	// span (a safety net; realistic configurations need 1-10).
	MaxSteps int
	// NoSplit disables spilling a work item across multiple bubbles
	// (every item must fit one bubble whole) in every placement: Executable
	// and Predict, Assign and AdaptiveRoundLength, and AssignSAM's extra
	// passes. The paper's rule — "otherwise, subsequent bubbles are
	// utilized" — corresponds to NoSplit=false; the ablation bench
	// quantifies what splitting buys.
	NoSplit bool
}

func (c Config) normalize() (Config, error) {
	switch c.Method {
	case "gpipe", "1f1b", "chimera":
	default:
		return c, fmt.Errorf("schedule: unknown method %q (want gpipe, 1f1b or chimera)", c.Method)
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 32
	}
	if c.RefreshSteps <= 0 {
		c.RefreshSteps = 1
	}
	if c.RefreshSteps > c.MaxSteps {
		return c, fmt.Errorf("schedule: RefreshSteps %d exceeds MaxSteps %d", c.RefreshSteps, c.MaxSteps)
	}
	if c.Overlap && c.FrontLoadRefresh {
		return c, fmt.Errorf("schedule: Overlap and FrontLoadRefresh are mutually exclusive (front-loading pins the whole refresh to the window's first step; overlap carries spill into the next window)")
	}
	if c.CarryDepth < 0 {
		return c, fmt.Errorf("schedule: CarryDepth %d is negative", c.CarryDepth)
	}
	if c.CarryDepth == 1 {
		return c, fmt.Errorf("schedule: CarryDepth 1 means no carry — use Overlap=false, or CarryDepth >= 2")
	}
	if c.CarryDepth > 1 && !c.Overlap {
		return c, fmt.Errorf("schedule: CarryDepth needs Overlap")
	}
	if c.Overlap && c.CarryDepth == 0 {
		c.CarryDepth = 2
	}
	if c.DataParallelWidth <= 0 {
		c.DataParallelWidth = 1
	}
	if c.InversionCostMultiplier <= 0 {
		c.InversionCostMultiplier = 1
	}
	if c.InversionCostMultiplier != 1 {
		scaled := make([]hardware.Microseconds, len(c.Costs.InversionUnits))
		for i, u := range c.Costs.InversionUnits {
			scaled[i] = hardware.Microseconds(float64(u) * c.InversionCostMultiplier)
		}
		c.Costs.InversionUnits = scaled
	}
	return c, nil
}

// Result reports the outcome of a PipeFisher assignment: the executed
// timeline of the shortest serialized refresh round whose bubbles hold one
// refresh.
type Result struct {
	// Timeline is the executed round: the base schedule over RefreshSteps
	// steps (including per-step precondition work) plus the K-FAC ops
	// packed into its bubbles.
	Timeline *pipeline.Timeline
	// VanillaTimeline is the base schedule without any K-FAC work, for
	// comparison (the "w/ Adam" rows of Figures 3 and 4).
	VanillaTimeline *pipeline.Timeline
	// RefreshSteps is the number of pipeline steps needed to refresh the
	// curvature and inverse matrices once: the round length K, equal to
	// AdaptiveRoundLength. The paper reports 1-4 for its configurations.
	RefreshSteps int
	// RefreshStepsPerStage breaks RefreshSteps down by stage: one more
	// than the last round step any of the stage's K-FAC ops runs in.
	RefreshStepsPerStage []int
	// StepTime is the round's makespan spread over its K steps, rounded up
	// (precondition included) — the formula Predict uses; VanillaStepTime
	// is the same quantity for the base schedule over K steps.
	StepTime        hardware.Microseconds
	VanillaStepTime hardware.Microseconds
	// Utilization counts all colored work over the round; VanillaUtilization
	// is the base schedule's over its own K steps.
	Utilization        float64
	VanillaUtilization float64
	// KFACWorkTime is the total curvature+inversion(+sync) time of the
	// round.
	KFACWorkTime hardware.Microseconds
	// Unassigned counts work items that found no bubble even at MaxSteps
	// (0 for all realistic configurations); they run serialized before the
	// round's last tail and show in StepTime.
	Unassigned int
}

// workItem is one schedulable unit of K-FAC work.
type workItem struct {
	kind     pipeline.WorkKind
	stage    int
	device   int
	replica  int // data-parallel replica owning the device
	factor   int // index into Costs.InversionUnits / CurvatureUnits
	micro    int // micro-batch for curvature, -1 otherwise
	duration hardware.Microseconds
	readyAt  hardware.Microseconds
	// placedEnd records the end of the item's last placed piece; placed
	// marks whether placement succeeded, and placedStart records the start
	// of the first piece (used by Executable to order real execution).
	placedEnd   hardware.Microseconds
	placedStart hardware.Microseconds
	placed      bool
	// blocked distinguishes WHY an overlap placement pass left the item
	// unplaced: true means a scheduling gate (the generation's curvature or
	// sync spilled, or a deeper inversion of the layer pair did) deferred
	// it, false means it simply found no bubble. Deep-carry promotion only
	// moves blocked items past generation 1 — lagging a capacity-starved
	// item deeper buys nothing (it is already ready at window start), but a
	// gated item one lag deeper decouples from the spilled gate and becomes
	// placeable. Reset every placement pass.
	blocked bool
	// wstep is the step of the refresh window the item executes in
	// (0-based; set by assignWindowSteps for the executable form).
	wstep int
	// gen is the item's generation lag in the overlapped executable form:
	// 0 = the window's own statistics generation; 1 = carried from the
	// previous window (the item spilled out of its own window's bubbles and
	// executes in the next window's early bubbles instead). Always 0 for
	// serialized rounds.
	gen int
}

// Assign measures how many pipeline steps one curvature/inversion refresh
// needs: it finds the shortest serialized executable round whose bubbles
// hold the whole refresh (see fitRound), runs that round through the
// simulator, and reports the executed timeline — the same op list
// Executable hands the engine, so every reported figure is one the
// executor would see. RefreshSteps, FrontLoadRefresh, Overlap and
// CarryDepth are ignored: Assign chooses the round rather than taking it.
func Assign(cfg Config) (*Result, error) {
	cfg, s, unplaced, err := fitRound(cfg)
	if err != nil {
		return nil, err
	}
	tl, err := pipeline.Run(s)
	if err != nil {
		return nil, err
	}
	k := cfg.RefreshSteps
	vanillaSched, err := buildBase(cfg, k, false)
	if err != nil {
		return nil, err
	}
	vanillaTL, err := pipeline.Run(vanillaSched)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Timeline:             tl,
		VanillaTimeline:      vanillaTL,
		RefreshSteps:         k,
		RefreshStepsPerStage: make([]int, cfg.Stages),
		StepTime:             perStep(tl.Makespan, k),
		VanillaStepTime:      perStep(vanillaTL.Makespan, k),
		Utilization:          tl.Utilization(),
		VanillaUtilization:   vanillaTL.Utilization(),
		Unassigned:           unplaced,
	}
	for _, op := range s.Ops {
		if !refreshKind(op.Kind) {
			continue
		}
		res.KFACWorkTime += op.Duration
		if op.Step+1 > res.RefreshStepsPerStage[op.Stage] {
			res.RefreshStepsPerStage[op.Stage] = op.Step + 1
		}
	}
	return res, nil
}

// fitRound finds the round length K: the smallest K <= MaxSteps at which
// the serialized executable round places every refresh item in a bubble.
// It returns the normalized configuration with RefreshSteps = K, that
// round's executable schedule, and the number of items left outside the
// bubbles (non-zero only when even MaxSteps steps cannot hold the refresh;
// those items run serialized before the round's last tail).
func fitRound(cfg Config) (Config, *pipeline.Schedule, int, error) {
	cfg.RefreshSteps = 0
	cfg.FrontLoadRefresh = false
	cfg.Overlap = false
	cfg.CarryDepth = 0
	cfg, err := cfg.normalize()
	if err != nil {
		return cfg, nil, 0, err
	}
	for k := 1; ; k++ {
		cfg.RefreshSteps = k
		base, tl, items, err := packRound(cfg)
		if err != nil {
			return cfg, nil, 0, err
		}
		unplaced := 0
		for _, it := range items {
			if !it.placed {
				unplaced++
			}
		}
		if unplaced == 0 || k == cfg.MaxSteps {
			s, err := assembleRound(cfg, base, tl, items)
			return cfg, s, unplaced, err
		}
	}
}

// perStep spreads a round's makespan over its k steps, rounding up — the
// per-training-step cost Predict ranks candidates by.
func perStep(makespan hardware.Microseconds, k int) hardware.Microseconds {
	return (makespan + hardware.Microseconds(k) - 1) / hardware.Microseconds(k)
}

func buildBase(cfg Config, steps int, precondition bool) (*pipeline.Schedule, error) {
	bc := pipeline.BuildConfig{
		Stages:               cfg.Stages,
		MicroBatches:         cfg.MicroBatches,
		Steps:                steps,
		Costs:                cfg.Costs,
		DataParallelWidth:    cfg.DataParallelWidth,
		IncludeOptimizerWork: true,
		IncludePrecondition:  precondition,
	}
	switch cfg.Method {
	case "gpipe":
		return pipeline.BuildGPipe(bc)
	case "1f1b":
		return pipeline.Build1F1B(bc)
	case "chimera":
		return pipeline.BuildChimera(bc)
	}
	return nil, fmt.Errorf("schedule: unknown method %q", cfg.Method)
}

// stageOwners returns the devices that hold a stage's parameters and their
// local micro-batch ranges, replica-major. For gpipe/1f1b, each of the W
// replicas owns all N micro-batches of its own replica stream; for chimera,
// each replica contributes a device pair — the down device owning local
// micro-batches [0, N/2) and the up device [N/2, N).
type owner struct {
	device  int
	replica int
	microLo int
	microHi int // exclusive
}

func stageOwners(cfg Config, stage int) []owner {
	w := cfg.DataParallelWidth
	if cfg.Method == "chimera" {
		half := cfg.MicroBatches / 2
		owners := make([]owner, 0, 2*w)
		for r := 0; r < w; r++ {
			owners = append(owners,
				owner{device: r*cfg.Stages + stage, replica: r, microLo: 0, microHi: half},
				owner{device: r*cfg.Stages + cfg.Stages - 1 - stage, replica: r, microLo: half, microHi: cfg.MicroBatches},
			)
		}
		return owners
	}
	owners := make([]owner, w)
	for r := 0; r < w; r++ {
		owners[r] = owner{device: stage*w + r, replica: r, microLo: 0, microHi: cfg.MicroBatches}
	}
	return owners
}

// buildWorkQueue creates the K-FAC work items of one refresh round with
// their ready times taken from the profiled timeline (rules 1 and 2).
func buildWorkQueue(cfg Config, sched *pipeline.Schedule, tl *pipeline.Timeline) []*workItem {
	var items []*workItem
	nFactors := len(cfg.Costs.InversionUnits)
	for stage := 0; stage < cfg.Stages; stage++ {
		owners := stageOwners(cfg, stage)
		// Curvature: one item per (owner device, micro-batch, factor).
		// Factor readiness: A factors (even index) after the forward of
		// the micro-batch at this stage; B factors (odd) after backward.
		curvEnd := make(map[[2]int]hardware.Microseconds) // (device, factor) -> latest curvature ready bound
		for _, ow := range owners {
			for m := ow.microLo; m < ow.microHi; m++ {
				fEv, okF := findStepEvent(tl, pipeline.Forward, stage, m, ow.device)
				bEv, okB := findStepEvent(tl, pipeline.Backward, stage, m, ow.device)
				if !okF || !okB {
					continue
				}
				for f := 0; f < nFactors; f++ {
					ready := fEv.End
					if factorKindOf(f) == FactorB {
						ready = bEv.End
					}
					items = append(items, &workItem{
						kind: pipeline.Curvature, stage: stage, device: ow.device,
						replica: ow.replica, factor: f, micro: m,
						duration: cfg.Costs.CurvatureUnits[f],
						readyAt:  ready,
					})
					key := [2]int{ow.device, f}
					if ready > curvEnd[key] {
						curvEnd[key] = ready
					}
				}
			}
		}
		// Sync-curvature collectives when factors are split across owners.
		// Created before the inversion items: inversions depend on their
		// stage's sync ops, and work that does not fit the bubbles keeps
		// its creation order at the end of the device's pre-tail op list —
		// a sync created after the inversions would be ordered after ops
		// that wait on it, deadlocking the executable form.
		if cfg.InversionParallel && len(owners) > 1 && cfg.Costs.SyncCurvature > 0 {
			for _, ow := range owners {
				items = append(items, &workItem{
					kind: pipeline.SyncCurvature, stage: stage, device: ow.device,
					replica: ow.replica, factor: -1, micro: -1,
					duration: cfg.Costs.SyncCurvature,
					readyAt:  0, // after the stage's curvature; set while packing
				})
			}
		}
		// Inversion: one item per factor, split round-robin across the
		// stage's owner group (the replica group for gpipe/1f1b, the W
		// bidirectional pairs for chimera) when inversion parallelism is
		// on — each owner inverts its shard, then broadcasts; otherwise
		// every replica duplicates the whole stage's inversion work
		// (chimera puts each replica's units on its down device).
		addInv := func(ow owner, f int) {
			items = append(items, &workItem{
				kind: pipeline.Inversion, stage: stage, device: ow.device,
				replica: ow.replica, factor: f, micro: -1,
				duration: cfg.Costs.InversionUnits[f],
				// Actual readiness (after all curvature for this factor is
				// *placed*) is enforced during packing; this is the lower
				// bound from rule 2's data dependency.
				readyAt: 0,
			})
		}
		if cfg.InversionParallel && len(owners) > 1 {
			for f := 0; f < nFactors; f++ {
				addInv(owners[f%len(owners)], f)
			}
		} else if cfg.Method == "chimera" {
			for r := 0; r < cfg.DataParallelWidth; r++ {
				for f := 0; f < nFactors; f++ {
					addInv(owners[2*r], f)
				}
			}
		} else {
			for _, ow := range owners {
				for f := 0; f < nFactors; f++ {
					addInv(ow, f)
				}
			}
		}
	}
	return items
}

// factorKindOf maps a factor index to A (even) or B (odd), matching
// arch.FactorDims order (A then B per layer).
func factorKindOf(f int) FactorKind {
	if f%2 == 0 {
		return FactorA
	}
	return FactorB
}

// findStepEvent locates the step-0 event of the given kind/stage/micro on a
// device.
func findStepEvent(tl *pipeline.Timeline, kind pipeline.WorkKind, stage, micro, device int) (pipeline.Event, bool) {
	for _, e := range tl.Events[device] {
		if e.Op.Kind == kind && e.Op.Stage == stage && e.Op.MicroBatch == micro && e.Op.Step == 0 {
			return e, true
		}
	}
	return pipeline.Event{}, false
}

// freeList tracks the remaining bubble intervals of one device.
type freeList struct {
	gaps []pipeline.Gap
}

// place books dur units of work at or after ready on the free list, split
// across consecutive gaps or, when whole is set (Config.NoSplit), into the
// first single gap that holds it entirely. It returns the placed pieces and
// the end of the last piece; ok is false when the free list is exhausted
// first.
func (fl *freeList) place(ready, dur hardware.Microseconds, whole bool) (pieces []pipeline.Gap, end hardware.Microseconds, ok bool) {
	remaining := dur
	for i := 0; i < len(fl.gaps) && remaining > 0; i++ {
		g := fl.gaps[i]
		start := g.Start
		if ready > start {
			start = ready
		}
		if start >= g.End {
			continue
		}
		avail := g.End - start
		if whole && avail < remaining {
			continue
		}
		take := remaining
		if take > avail {
			take = avail
		}
		pieces = append(pieces, pipeline.Gap{Device: g.Device, Start: start, End: start + take})
		remaining -= take
		end = start + take
		// Shrink the gap: [g.Start, start) stays free; [start+take, g.End)
		// stays free.
		var repl []pipeline.Gap
		if start > g.Start {
			repl = append(repl, pipeline.Gap{Device: g.Device, Start: g.Start, End: start})
		}
		if start+take < g.End {
			repl = append(repl, pipeline.Gap{Device: g.Device, Start: start + take, End: g.End})
		}
		fl.gaps = append(fl.gaps[:i], append(repl, fl.gaps[i+1:]...)...)
		i += len(repl) - 1
	}
	return pieces, end, remaining == 0
}
