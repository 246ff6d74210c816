package schedule

import (
	"fmt"
	"sort"

	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// Executable builds the *executable* form of one K-FAC refresh round: the
// base pipeline schedule laid out over Config.RefreshSteps consecutive
// pipeline steps (each with its own per-step precondition and optimizer
// tail) with the curvature and inversion work of ONE refresh inserted into
// the devices' op orders at the bubble positions the PipeFisher packing
// chose — across all of the round's steps, exactly the paper's 2-4-step
// refresh windows — and with real dependency edges wired so the op list can
// be *executed*: by the timing simulator and by internal/engine's real
// training executor alike. This is the single schedule form the simulator
// and the execution engine share; RefreshSteps = 1 is the degenerate
// one-step round (the historical form).
//
// Dependency edges follow the paper's rules, tightened where real math
// needs it:
//
//   - Curvature of (stage, micro, factor) depends on the forward (A
//     factors) or backward (B factors) of that micro-batch on the owning
//     device in the round's FIRST step (rule 1): a round folds the
//     statistics of the window's first batch, and spills the compute into
//     whichever later bubbles the packer found.
//   - Inversion of a factor depends on every curvature op of its *layer
//     pair* (A and B of the same layer, across all owning devices): the
//     factored Tikhonov damping couples the pair through their traces, so
//     real inversion needs both factors final (a strict superset of rule 2).
//   - Sync-curvature (when present) depends on all curvature of its stage;
//     inversions additionally depend on their stage's sync ops.
//   - The Precondition op of step j additionally depends on the inversion
//     ops of its stage that the packer assigned to steps <= j, so each step
//     deterministically preconditions with the freshest inverses that have
//     completed by that step — and with the previous refresh's (stale)
//     inverses for factors whose inversion lands in a later bubble of the
//     window, the staleness discipline of §3.1. The round's LAST step
//     depends on every inversion of the stage, so one round always
//     completes one full refresh.
//
// Work that does not fit the round's bubbles is appended at the end of the
// last step's pre-tail order (execution can always complete; only the
// timing degrades), and inversion work whose curvature spilled is deferred
// the same way so cross-device waits can never cycle.
//
// With Config.Overlap the spill is not serialized but *carried*: the
// schedule describes the steady state of overlapping windows, in which the
// refresh work that cannot fit its own window executes in FOLLOWING
// windows' early bubbles as generation-lagged ops (Op.Generation = g means
// the op runs g windows after its statistics were collected, g up to
// Config.CarryDepth-1) operating on a previous window's statistics pool.
// Carried ops are packed FIRST, deepest lag leading (they are ready the
// moment the window starts — their inputs completed in earlier windows),
// then the window's own curvature collection fills what is left — so the
// early bubbles that a serialized round must leave idle (the window's own
// statistics do not exist yet) absorb the queued refresh work instead.
// A generation's inversions of a layer additionally depend on that layer's
// deeper-lagged inversions, keeping the per-layer EMA fold order sequential
// across generations.
func Executable(cfg Config) (*pipeline.Schedule, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	base, tl, items, err := packRound(cfg)
	if err != nil {
		return nil, err
	}
	return assembleRound(cfg, base, tl, items)
}

// packRound builds and times the base schedule of one round (normalized
// cfg) and packs the round's refresh work items into its bubbles.
func packRound(cfg Config) (*pipeline.Schedule, *pipeline.Timeline, []*workItem, error) {
	base, err := buildBase(cfg, cfg.RefreshSteps, true)
	if err != nil {
		return nil, nil, nil, err
	}
	tl, err := pipeline.Run(base)
	if err != nil {
		return nil, nil, nil, err
	}
	items := buildWorkQueue(cfg, base, tl)
	if cfg.Overlap {
		packOverlapped(items, tl, cfg)
	} else {
		packForExec(items, tl, cfg)
	}
	return base, tl, items, nil
}

// assembleRound turns a packed round into the executable op list: the base
// ops plus one op per work item, with the dependency edges and per-device
// orders Executable documents.
func assembleRound(cfg Config, base *pipeline.Schedule, tl *pipeline.Timeline, items []*workItem) (*pipeline.Schedule, error) {
	assignWindowSteps(items, tl, cfg)

	s := &pipeline.Schedule{
		Name:         base.Name + "+PipeFisher",
		Devices:      base.Devices,
		Stages:       base.Stages,
		MicroBatches: base.MicroBatches,
		Steps:        cfg.RefreshSteps,
		Ops:          append([]*pipeline.Op(nil), base.Ops...),
		Order:        make([][]int, base.Devices),
	}

	// Lookup of the FIRST step's forward/backward ops by (kind, stage,
	// micro, device) — the statistics sources of the round's curvature.
	baseID := make(map[[4]int]int, len(base.Ops))
	for _, op := range base.Ops {
		if op.Step == 0 && (op.Kind == pipeline.Forward || op.Kind == pipeline.Backward) {
			baseID[[4]int{int(op.Kind), op.Stage, op.MicroBatch, op.Device}] = op.ID
		}
	}

	// Create the K-FAC ops. Curvature first so inversion/sync deps can
	// reference them. All data-dependency maps are keyed by generation:
	// edges only bind ops of the same generation (a carried op's same-
	// generation peers that already ran did so in the previous window), plus
	// the explicit cross-generation fold-order edges on inversions.
	itemOp := make(map[*workItem]*pipeline.Op, len(items))
	curvIDs := make(map[[3]int][]int)            // (gen, stage, factor) -> curvature op ids
	stageCurvIDs := make(map[[2]int][]int)       // (gen, stage)
	syncIDs := make(map[[2]int][]int)            // (gen, stage)
	invOps := make(map[int][]*pipeline.Op)       // stage -> inversion ops, both generations
	invGenOps := make(map[[3]int][]*pipeline.Op) // (gen, stage, factor)
	newOp := func(it *workItem) *pipeline.Op {
		op := &pipeline.Op{
			ID: len(s.Ops), Kind: it.kind, Device: it.device, Stage: it.stage,
			Replica: it.replica, MicroBatch: it.micro, Factor: it.factor, Step: it.wstep,
			Generation: it.gen, Duration: maxDur(it.duration, 1),
		}
		s.Ops = append(s.Ops, op)
		itemOp[it] = op
		return op
	}
	for _, it := range items {
		if it.kind != pipeline.Curvature {
			continue
		}
		op := newOp(it)
		if it.gen == 0 {
			depKind := pipeline.Forward
			if factorKindOf(it.factor) == FactorB {
				depKind = pipeline.Backward
			}
			if id, ok := baseID[[4]int{int(depKind), it.stage, it.micro, it.device}]; ok {
				op.Deps = append(op.Deps, id)
			} else {
				return nil, fmt.Errorf("schedule: no %v op for stage %d micro %d device %d",
					depKind, it.stage, it.micro, it.device)
			}
		}
		// Carried curvature (gen 1) reads the previous window's pooled
		// statistics snapshots, complete before this window began: no
		// in-window data dependency, schedulable from the first bubble.
		curvIDs[[3]int{it.gen, it.stage, it.factor}] = append(curvIDs[[3]int{it.gen, it.stage, it.factor}], op.ID)
		stageCurvIDs[[2]int{it.gen, it.stage}] = append(stageCurvIDs[[2]int{it.gen, it.stage}], op.ID)
	}
	for _, it := range items {
		if it.kind != pipeline.SyncCurvature {
			continue
		}
		op := newOp(it)
		op.Deps = append(op.Deps, stageCurvIDs[[2]int{it.gen, it.stage}]...)
		syncIDs[[2]int{it.gen, it.stage}] = append(syncIDs[[2]int{it.gen, it.stage}], op.ID)
	}
	// Carried inversions first, deepest generation leading: shallower
	// inversions of a layer pair take cross-generation edges on every
	// deeper one (per-layer EMA fold order: an older generation folds and
	// swaps before a newer one folds on top — §3.1's freshest-completed
	// rule stays monotone in generations).
	maxGen := 0
	for _, it := range items {
		if it.gen > maxGen {
			maxGen = it.gen
		}
	}
	for gen := maxGen; gen >= 0; gen-- {
		for _, it := range items {
			if it.kind != pipeline.Inversion || it.gen != gen {
				continue
			}
			op := newOp(it)
			op.Deps = append(op.Deps, curvIDs[[3]int{gen, it.stage, it.factor}]...)
			op.Deps = append(op.Deps, curvIDs[[3]int{gen, it.stage, pairFactor(it.factor)}]...)
			op.Deps = append(op.Deps, syncIDs[[2]int{gen, it.stage}]...)
			for g2 := gen + 1; g2 <= maxGen; g2++ {
				for _, f := range []int{it.factor, pairFactor(it.factor)} {
					for _, prev := range invGenOps[[3]int{g2, it.stage, f}] {
						op.Deps = append(op.Deps, prev.ID)
					}
				}
			}
			op.Deps = dedup(op.Deps)
			invOps[op.Stage] = append(invOps[op.Stage], op)
			invGenOps[[3]int{gen, it.stage, it.factor}] = append(invGenOps[[3]int{gen, it.stage, it.factor}], op)
		}
	}
	// Each step's Precondition uses the freshest inverses completed by that
	// step: it depends on the stage's inversions packed into steps <= its
	// own. The last step depends on all of them (wstep is clamped to the
	// round), closing the refresh within the round.
	for _, op := range s.Ops {
		if op.Kind == pipeline.Precondition {
			for _, inv := range invOps[op.Stage] {
				if inv.Step <= op.Step {
					op.Deps = append(op.Deps, inv.ID)
				}
			}
		}
	}

	assembleExecOrders(s, tl, items, itemOp)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: executable form invalid: %w", err)
	}
	return s, nil
}

// pairFactor returns the other Kronecker factor of the same layer
// (A at 2l, B at 2l+1).
func pairFactor(f int) int { return f ^ 1 }

func maxDur(a, b hardware.Microseconds) hardware.Microseconds {
	if a > b {
		return a
	}
	return b
}

func dedup(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	var out []int
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// packForExec places the work items of a serialized round into the base
// timeline's bubbles — which span all RefreshSteps steps of the window —
// under the paper's rules, with execution-consistent readiness: an
// inversion is ready only once *both* factors of its layer have complete
// curvature on every owning device (and the stage's sync-curvature, when
// present, has run) — matching the dependency edges Executable wires, so
// the packed per-device positions can never contradict the deps. Assign
// and AdaptiveRoundLength measure rounds packed here too (see fitRound).
func packForExec(items []*workItem, base *pipeline.Timeline, cfg Config) {
	packOwnWindow(items, freshFree(base), cfg, nil, nil, nil)
}

// placeItem books a work item into its device's bubbles at or after its
// readiness (whole, under Config.NoSplit) and records where it landed.
func placeItem(free []*freeList, it *workItem, whole bool) {
	pieces, end, ok := free[it.device].place(it.readyAt, it.duration, whole)
	it.placed = ok
	if ok {
		it.placedStart = pieces[0].Start
		it.placedEnd = end
	}
}

// freshFree builds per-device free lists over the base timeline's bubbles.
func freshFree(base *pipeline.Timeline) []*freeList {
	free := make([]*freeList, base.Devices)
	for d := 0; d < base.Devices; d++ {
		free[d] = &freeList{gaps: base.Gaps(d, 0, base.Makespan)}
	}
	return free
}

// packOwnWindow packs the window's own-generation work items into the free
// bubbles. carried items (nil-safe) are skipped — the overlap path placed
// them already — and carryInvEnd/carryInvBlocked feed the cross-generation
// inversion constraint: an own-generation inversion must start after (or,
// when the carried one found no bubble at all, be deferred behind) the
// carried inversions of its layer pair, so the per-layer fold order the
// dependency edges prescribe is realizable on every device order.
func packOwnWindow(items []*workItem, free []*freeList, cfg Config,
	carried map[*workItem]bool, carryInvEnd map[[2]int]hardware.Microseconds, carryInvBlocked map[[2]int]bool) {
	var curv, syncs, invs []*workItem
	for _, it := range items {
		if carried[it] {
			continue
		}
		switch it.kind {
		case pipeline.Curvature:
			curv = append(curv, it)
		case pipeline.SyncCurvature:
			syncs = append(syncs, it)
		default:
			invs = append(invs, it)
		}
	}
	sort.SliceStable(curv, func(i, j int) bool { return curv[i].readyAt < curv[j].readyAt })

	curvDone := make(map[[3]int]hardware.Microseconds)      // (device, stage, factor)
	stageCurvDone := make(map[[2]int]hardware.Microseconds) // (device, stage)
	place := func(it *workItem) { placeItem(free, it, cfg.NoSplit) }
	allCurvPlaced := func(stage int) bool {
		for _, it := range curv {
			if it.stage == stage && !it.placed {
				return false
			}
		}
		return true
	}
	// allPlaced gates inversions: they additionally depend on the stage's
	// sync-curvature ops, so those must have found slots too.
	allPlaced := func(stage int) bool {
		if !allCurvPlaced(stage) {
			return false
		}
		for _, it := range syncs {
			if it.stage == stage && !it.placed {
				return false
			}
		}
		return true
	}
	for _, it := range curv {
		place(it)
		if !it.placed {
			continue
		}
		key := [3]int{it.device, it.stage, it.factor}
		if it.placedEnd > curvDone[key] {
			curvDone[key] = it.placedEnd
		}
		skey := [2]int{it.device, it.stage}
		if it.placedEnd > stageCurvDone[skey] {
			stageCurvDone[skey] = it.placedEnd
		}
	}
	syncStageDone := make(map[int]hardware.Microseconds)
	for _, it := range syncs {
		// A sync is placeable once the stage's *curvature* is placed —
		// checking the sync items themselves here would see the item
		// under consideration (still unplaced) and refuse every sync,
		// deferring all of the stage's inversions out of the bubbles.
		if !allCurvPlaced(it.stage) {
			it.placed = false
			continue
		}
		for _, ow := range stageOwners(cfg, it.stage) {
			if t := stageCurvDone[[2]int{ow.device, it.stage}]; t > it.readyAt {
				it.readyAt = t
			}
		}
		place(it)
		if it.placed && it.placedEnd > syncStageDone[it.stage] {
			syncStageDone[it.stage] = it.placedEnd
		}
	}
	for _, it := range invs {
		if !allPlaced(it.stage) {
			// Curvature spilled out of the bubbles: defer the inversion to
			// the end-of-round position too, so waits can't cycle.
			it.placed = false
			continue
		}
		if carryInvBlocked[[2]int{it.stage, it.factor}] || carryInvBlocked[[2]int{it.stage, pairFactor(it.factor)}] {
			// A carried inversion of the layer pair found no bubble: this
			// inversion must order after it, i.e. in the end-of-round
			// deferred block too.
			it.placed = false
			continue
		}
		for _, ow := range stageOwners(cfg, it.stage) {
			for _, f := range []int{it.factor, pairFactor(it.factor)} {
				if t := curvDone[[3]int{ow.device, it.stage, f}]; t > it.readyAt {
					it.readyAt = t
				}
			}
		}
		if t := syncStageDone[it.stage]; t > it.readyAt {
			it.readyAt = t
		}
		for _, f := range []int{it.factor, pairFactor(it.factor)} {
			if t := carryInvEnd[[2]int{it.stage, f}]; t > it.readyAt {
				it.readyAt = t
			}
		}
		place(it)
	}
}

// packOverlapped computes the overlapped-window steady state: the carry set
// — the refresh work that executes lagged, in the following windows' early
// bubbles — is grown to a fixed point so the schedule is self-consistent
// (what spills out of the window is exactly what the window absorbs as
// carried work from its predecessors; every window of the steady state is
// identical). Each iteration places the current generation assignment
// (deepest generations first — they have been queued longest and gate the
// fold order) and promotes one generation deeper, up to
// Config.CarryDepth-1, closed over the lag-monotonicity constraints of
// carryClosure. Promotion is targeted:
//
//   - Every unplaced generation-0 item promotes (classic depth-2 carry:
//     lagging makes it ready at window start instead of after its
//     statistics sources, which is what lets it use the early bubbles).
//   - A carried item promotes only when it was BLOCKED — deferred behind
//     its generation's spilled curvature/sync or a spilled deeper
//     inversion of its layer pair — because one more lag decouples it
//     from the spilled gate (the gate's pool work completes in an earlier
//     window) and it becomes bubble-placeable. A carried item that merely
//     found no free bubble stays: it is already ready at window start, so
//     deeper lag cannot improve its placement, only its staleness.
//
// Items that hit the depth cap and still do not fit stay at the deepest
// generation and serialize before that window's tail, exactly like the
// serialized packer's spill. The loop terminates because generations only
// grow and are bounded by the depth; when nothing spills on the first
// iteration, the result is identical to the serialized packing, and at
// CarryDepth 2 the targeted rule degenerates to promoting every unplaced
// generation-0 item — the committed depth-2 behavior, unchanged.
func packOverlapped(items []*workItem, base *pipeline.Timeline, cfg Config) {
	depth := cfg.CarryDepth
	if depth < 2 {
		depth = 2
	}
	for {
		placeOverlapRound(items, base, cfg)
		grew := false
		for _, it := range items {
			if it.placed || it.gen >= depth-1 {
				continue
			}
			if it.gen == 0 || it.blocked {
				it.gen++
				grew = true
			}
		}
		if !grew {
			break
		}
		carryClosure(items)
	}
}

// carryClosure restores lag-monotonicity within one statistics generation
// after promotions: a sync-curvature depends on ALL the stage's curvature,
// so its lag must be at least the stage's deepest curvature lag; an
// inversion depends on its layer pair's curvature and the stage's syncs, so
// its lag must cover both. (Ops at lag g execute g windows after the
// statistics were collected; a consumer at a lag below its producer would
// run in an earlier window than its inputs.) Curvature carries individually
// — each micro-batch term folds into the generation's pooled partials
// independently — and deeper-lag work of OTHER statistics generations never
// constrains this one: cross-generation order is enforced by round
// sequencing, not edges.
func carryClosure(items []*workItem) {
	curvGen := make(map[[2]int]int) // (stage, factor) -> max curvature gen
	stageCurvGen := make(map[int]int)
	for _, it := range items {
		if it.kind != pipeline.Curvature {
			continue
		}
		key := [2]int{it.stage, it.factor}
		if it.gen > curvGen[key] {
			curvGen[key] = it.gen
		}
		if it.gen > stageCurvGen[it.stage] {
			stageCurvGen[it.stage] = it.gen
		}
	}
	syncGen := make(map[int]int) // stage -> max sync gen
	for _, it := range items {
		if it.kind != pipeline.SyncCurvature {
			continue
		}
		if g := stageCurvGen[it.stage]; g > it.gen {
			it.gen = g
		}
		if it.gen > syncGen[it.stage] {
			syncGen[it.stage] = it.gen
		}
	}
	for _, it := range items {
		if it.kind != pipeline.Inversion {
			continue
		}
		for _, f := range []int{it.factor, pairFactor(it.factor)} {
			if g := curvGen[[2]int{it.stage, f}]; g > it.gen {
				it.gen = g
			}
		}
		if g := syncGen[it.stage]; g > it.gen {
			it.gen = g
		}
	}
}

// placeOverlapRound performs one placement pass of the overlapped steady
// state: carried generations first, deepest lag first — each generation's
// curvature is ready at window start (its statistics are a previous
// window's pooled snapshots, complete before this window began) and its
// syncs and inversions chain off same-generation placements only, exactly
// mirroring the dependency edges (same-generation edges bind ops of the
// same statistics pool within the window; shallower lags of that pool ran
// in earlier windows). Then the window's own generation fills the remaining
// bubbles. Inversion ends/blocks accumulate across generations so that a
// shallower inversion of the same layer pair always orders after the deeper
// ones — the per-layer EMA fold order.
func placeOverlapRound(items []*workItem, base *pipeline.Timeline, cfg Config) {
	free := freshFree(base)
	maxGen := 0
	for _, it := range items {
		it.placed = false
		it.placedStart = 0
		it.placedEnd = 0
		it.blocked = false
		// Sync and inversion readiness is derived during packing; carried
		// curvature is ready at window start. Own-window curvature keeps
		// its buildWorkQueue readiness. An item's generation never
		// decreases, so overwriting its readiness is safe across
		// fixed-point iterations.
		if it.kind != pipeline.Curvature || it.gen > 0 {
			it.readyAt = 0
		}
		if it.gen > maxGen {
			maxGen = it.gen
		}
	}
	place := func(it *workItem) { placeItem(free, it, cfg.NoSplit) }
	carried := make(map[*workItem]bool)
	for _, it := range items {
		if it.gen > 0 {
			carried[it] = true
		}
	}
	// carryInvEnd/carryInvBlocked see only strictly DEEPER generations than
	// the one being placed (genInvEnd/genInvBlocked buffer the current one):
	// the fold-order constraint is cross-generation; same-generation
	// inversions of a layer pair share one statistics pool and carry no
	// ordering edges.
	carryInvEnd := make(map[[2]int]hardware.Microseconds) // (stage, factor)
	carryInvBlocked := make(map[[2]int]bool)
	for gen := maxGen; gen >= 1; gen-- {
		genInvEnd := make(map[[2]int]hardware.Microseconds)
		genInvBlocked := make(map[[2]int]bool)
		curvDone := make(map[[2]int]hardware.Microseconds) // (device, stage)
		pairDone := make(map[[3]int]hardware.Microseconds) // (device, stage, factor)
		curvUnplaced := make(map[int]bool)                 // stage
		for _, it := range items {
			if it.gen != gen || it.kind != pipeline.Curvature {
				continue
			}
			place(it)
			if !it.placed {
				curvUnplaced[it.stage] = true
				continue
			}
			key := [3]int{it.device, it.stage, it.factor}
			if it.placedEnd > pairDone[key] {
				pairDone[key] = it.placedEnd
			}
			skey := [2]int{it.device, it.stage}
			if it.placedEnd > curvDone[skey] {
				curvDone[skey] = it.placedEnd
			}
		}
		syncDone := make(map[int]hardware.Microseconds)
		syncUnplaced := make(map[int]bool)
		for _, it := range items {
			if it.gen != gen || it.kind != pipeline.SyncCurvature {
				continue
			}
			if curvUnplaced[it.stage] {
				it.placed = false
				it.blocked = true
				syncUnplaced[it.stage] = true
				continue
			}
			for _, ow := range stageOwners(cfg, it.stage) {
				if t := curvDone[[2]int{ow.device, it.stage}]; t > it.readyAt {
					it.readyAt = t
				}
			}
			place(it)
			if !it.placed {
				syncUnplaced[it.stage] = true
				continue
			}
			if it.placedEnd > syncDone[it.stage] {
				syncDone[it.stage] = it.placedEnd
			}
		}
		for _, it := range items {
			if it.gen != gen || it.kind != pipeline.Inversion {
				continue
			}
			key := [2]int{it.stage, it.factor}
			if curvUnplaced[it.stage] || syncUnplaced[it.stage] ||
				carryInvBlocked[key] || carryInvBlocked[[2]int{it.stage, pairFactor(it.factor)}] {
				it.placed = false
				it.blocked = true
				genInvBlocked[key] = true
				continue
			}
			for _, ow := range stageOwners(cfg, it.stage) {
				for _, f := range []int{it.factor, pairFactor(it.factor)} {
					if t := pairDone[[3]int{ow.device, it.stage, f}]; t > it.readyAt {
						it.readyAt = t
					}
				}
			}
			if t := syncDone[it.stage]; t > it.readyAt {
				it.readyAt = t
			}
			for _, f := range []int{it.factor, pairFactor(it.factor)} {
				if t := carryInvEnd[[2]int{it.stage, f}]; t > it.readyAt {
					it.readyAt = t
				}
			}
			place(it)
			if !it.placed {
				genInvBlocked[key] = true
				continue
			}
			if it.placedEnd > genInvEnd[key] {
				genInvEnd[key] = it.placedEnd
			}
		}
		for key, end := range genInvEnd {
			if end > carryInvEnd[key] {
				carryInvEnd[key] = end
			}
		}
		for key := range genInvBlocked {
			carryInvBlocked[key] = true
		}
	}
	packOwnWindow(items, free, cfg, carried, carryInvEnd, carryInvBlocked)
}

// assignWindowSteps maps every packed work item to the step of the refresh
// window it executes in (workItem.wstep): the step era its placed start
// falls into *on its own device*, where the era boundary of step j is the
// start of the device's earliest step-j tail op (sync-grad / precondition /
// opt-step) in the base timeline — items at or past a boundary belong to
// the next step's bubbles. Unplaced items go to the last step. Two
// monotonic clamps keep the assignment consistent with the dependency
// edges across devices (a dependent op can never be assigned an earlier
// step than its dependencies, which is what makes the per-step precondition
// edges acyclic): sync-curvature is clamped to its stage's curvature,
// inversion to its factor pair's curvature and its stage's syncs.
func assignWindowSteps(items []*workItem, base *pipeline.Timeline, cfg Config) {
	if cfg.FrontLoadRefresh {
		// Skip-cadence placement: the whole refresh belongs to the window's
		// first step (ordered ahead of its tail), steps 1..K-1 run stale.
		for _, it := range items {
			it.wstep = 0
		}
		return
	}
	k := cfg.RefreshSteps
	last := k - 1
	// tailStart[d][j]: start of device d's earliest step-j tail op.
	const never = hardware.Microseconds(1) << 62
	tailStart := make([][]hardware.Microseconds, base.Devices)
	for d := range tailStart {
		tailStart[d] = make([]hardware.Microseconds, k)
		for j := range tailStart[d] {
			tailStart[d][j] = never
		}
		for _, e := range base.Events[d] {
			switch e.Op.Kind {
			case pipeline.SyncGrad, pipeline.Precondition, pipeline.OptStep:
				if j := e.Op.Step; j >= 0 && j < k && e.Start < tailStart[d][j] {
					tailStart[d][j] = e.Start
				}
			}
		}
	}
	eraOf := func(it *workItem) int {
		if !it.placed {
			return last
		}
		era := 0
		for j := 0; j < last; j++ {
			if it.placedStart >= tailStart[it.device][j] {
				era = j + 1
			}
		}
		return era
	}
	// The clamp maps are keyed by generation: dependency edges only bind
	// same-generation ops, except the cross-generation fold-order edge from
	// a layer's carried inversions to the window's own — clamped last.
	curvStep := make(map[[3]int]int) // (gen, stage, factor) -> max curvature wstep
	for _, it := range items {
		if it.kind != pipeline.Curvature {
			continue
		}
		it.wstep = eraOf(it)
		key := [3]int{it.gen, it.stage, it.factor}
		if it.wstep > curvStep[key] {
			curvStep[key] = it.wstep
		}
	}
	stageCurvStep := make(map[[2]int]int) // (gen, stage)
	for key, w := range curvStep {
		skey := [2]int{key[0], key[1]}
		if w > stageCurvStep[skey] {
			stageCurvStep[skey] = w
		}
	}
	syncStep := make(map[[2]int]int) // (gen, stage) -> max sync wstep
	for _, it := range items {
		if it.kind != pipeline.SyncCurvature {
			continue
		}
		it.wstep = eraOf(it)
		if w := stageCurvStep[[2]int{it.gen, it.stage}]; w > it.wstep {
			it.wstep = w
		}
		if it.wstep > syncStep[[2]int{it.gen, it.stage}] {
			syncStep[[2]int{it.gen, it.stage}] = it.wstep
		}
	}
	maxGen := 0
	for _, it := range items {
		if it.gen > maxGen {
			maxGen = it.gen
		}
	}
	invStep := make(map[[3]int]int) // (gen, stage, factor) -> max inversion wstep
	for gen := maxGen; gen >= 0; gen-- {
		for _, it := range items {
			if it.kind != pipeline.Inversion || it.gen != gen {
				continue
			}
			it.wstep = eraOf(it)
			for _, f := range []int{it.factor, pairFactor(it.factor)} {
				if w := curvStep[[3]int{gen, it.stage, f}]; w > it.wstep {
					it.wstep = w
				}
				// Fold order: a generation's inversion of a layer runs after
				// the layer's deeper-lagged (older) inversions.
				for g2 := gen + 1; g2 <= maxGen; g2++ {
					if w := invStep[[3]int{g2, it.stage, f}]; w > it.wstep {
						it.wstep = w
					}
				}
			}
			if w := syncStep[[2]int{gen, it.stage}]; w > it.wstep {
				it.wstep = w
			}
			key := [3]int{gen, it.stage, it.factor}
			if it.wstep > invStep[key] {
				invStep[key] = it.wstep
			}
		}
	}
}

// assembleExecOrders builds each device's execution order, step by step of
// the round: the step's base forward/backward ops merged with the K-FAC
// items the packer assigned to that step by start time, followed by the
// step's tail (sync-grad, precondition, optimizer). K-FAC work that did not
// pack goes right before the last step's tail, preserving every dependency
// edge — and items assigned to step j always order before step j's tail,
// which is exactly what the per-step precondition edges assume.
func assembleExecOrders(s *pipeline.Schedule, tl *pipeline.Timeline, items []*workItem, itemOp map[*workItem]*pipeline.Op) {
	type entry struct {
		start hardware.Microseconds
		seq   int
		opID  int
	}
	const never = hardware.Microseconds(1) << 62
	k := s.Steps
	for d := 0; d < s.Devices; d++ {
		heads := make([][]entry, k)
		tails := make([][]int, k)
		seq := 0
		clamp := func(j int) int {
			if j < 0 {
				return 0
			}
			if j >= k {
				return k - 1
			}
			return j
		}
		for _, e := range tl.Events[d] {
			j := clamp(e.Op.Step)
			switch e.Op.Kind {
			case pipeline.SyncGrad, pipeline.Precondition, pipeline.OptStep:
				tails[j] = append(tails[j], e.Op.ID)
			default:
				heads[j] = append(heads[j], entry{start: e.Start, seq: seq, opID: e.Op.ID})
				seq++
			}
		}
		// Carried items take earlier sequence numbers than the window's
		// own, deepest generation first: among deferred items sharing the
		// end-of-round position, a layer's deeper-lagged inversion must
		// order before the shallower inversion that depends on it.
		maxGen := 0
		for _, it := range items {
			if it.gen > maxGen {
				maxGen = it.gen
			}
		}
		for gen := maxGen; gen >= 0; gen-- {
			for _, it := range items {
				if it.device != d || it.gen != gen {
					continue
				}
				op := itemOp[it]
				if op == nil {
					continue
				}
				start := never
				if it.placed {
					start = it.placedStart
				}
				j := clamp(it.wstep)
				heads[j] = append(heads[j], entry{start: start, seq: seq, opID: op.ID})
				seq++
			}
		}
		for j := 0; j < k; j++ {
			h := heads[j]
			sort.SliceStable(h, func(a, b int) bool {
				if h[a].start != h[b].start {
					return h[a].start < h[b].start
				}
				return h[a].seq < h[b].seq
			})
			for _, en := range h {
				s.Order[d] = append(s.Order[d], en.opID)
			}
			s.Order[d] = append(s.Order[d], tails[j]...)
		}
	}
}
