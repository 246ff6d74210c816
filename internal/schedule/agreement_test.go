package schedule

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/hardware"
	"repro/internal/pipeline"
)

// checkAgreement asserts that Assign is a view of the executable round it
// measures: its round length is AdaptiveRoundLength's, its step time and
// makespan are Predict's for that round, and the round is the shortest one
// whose bubbles hold the whole refresh (or MaxSteps when none does).
func checkAgreement(t *testing.T, cfg Config) {
	t.Helper()
	res, err := Assign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := AdaptiveRoundLength(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k != res.RefreshSteps {
		t.Fatalf("AdaptiveRoundLength K=%d, Assign RefreshSteps %d", k, res.RefreshSteps)
	}
	p, err := Predict(cfg, Candidate{Method: cfg.Method, RefreshSteps: k, InversionParallel: cfg.InversionParallel})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepTime != p.StepTime {
		t.Fatalf("Assign step time %d, Predict %d at K=%d", res.StepTime, p.StepTime, k)
	}
	if res.Timeline.Makespan != p.RoundMakespan {
		t.Fatalf("Assign makespan %d, Predict round makespan %d at K=%d", res.Timeline.Makespan, p.RoundMakespan, k)
	}
	norm, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unassigned > 0 {
		if k != norm.MaxSteps {
			t.Fatalf("%d items unplaced at K=%d < MaxSteps %d", res.Unassigned, k, norm.MaxSteps)
		}
		return
	}
	if k == 1 {
		return
	}
	norm.RefreshSteps = k - 1
	_, _, items, err := packRound(norm)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if !it.placed {
			return
		}
	}
	t.Fatalf("K=%d chosen, but K-1 already places every item", k)
}

// Property: Assign agrees with the executable form over generated
// configurations — every method, stage count, micro-batch count, replica
// width, inversion sharding and splitting rule, with curvature and
// inversion costs scaled together by 1-6x so refreshes range from a few steps to more
// than MaxSteps (capped at 20 to bound the search's cost).
func TestAssignAgreesWithExecutableProperty(t *testing.T) {
	base := map[int]pipeline.StageCosts{}
	for _, w := range []int{1, 2} {
		costs, err := pipeline.CostsFor(pipeline.CostConfig{
			Arch: arch.BERTBase, BlocksPerStage: 3, MicroBatch: 32, GPU: hardware.P100, DataParallelWidth: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		base[w] = costs
	}
	methods := []string{"gpipe", "1f1b", "chimera"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		w := 1 + rng.Intn(2)
		scale := 1 + rng.Intn(6)
		costs := base[w]
		costs.CurvatureUnits = append([]hardware.Microseconds(nil), costs.CurvatureUnits...)
		for f := range costs.CurvatureUnits {
			costs.CurvatureUnits[f] *= hardware.Microseconds(scale)
		}
		costs.CurvaturePerMicroBatch *= hardware.Microseconds(scale)
		cfg := Config{
			Method:                  methods[rng.Intn(len(methods))],
			Stages:                  2 * (1 + rng.Intn(4)),
			MicroBatches:            2 * (1 + rng.Intn(4)),
			Costs:                   costs,
			DataParallelWidth:       w,
			InversionParallel:       rng.Intn(2) == 1,
			NoSplit:                 rng.Intn(2) == 1,
			InversionCostMultiplier: float64(scale),
			MaxSteps:                20,
		}
		name := fmt.Sprintf("%s/%dx%d/W%d/invpar=%v/nosplit=%v/cost%dx", cfg.Method, cfg.Stages,
			cfg.MicroBatches, w, cfg.InversionParallel, cfg.NoSplit, scale)
		t.Run(name, func(t *testing.T) { checkAgreement(t, cfg) })
	}
}

// Chimera on 6 stages x 2 micro-batches is a configuration where measuring
// the refresh apart from the executable round picked a window (K=2) whose
// executable form still left refresh work outside the bubbles, and
// reported a step time below the executed one.
func TestAssignAgreesWithExecutableChimera6x2(t *testing.T) {
	costs := paperCosts(t, 1, 8, arch.BERTBase, 1)
	checkAgreement(t, Config{Method: "chimera", Stages: 6, MicroBatches: 2, Costs: costs})
}

// NoSplit reaches the executable packer: every item it places occupies one
// contiguous interval of a single bubble, while the default rule spills
// some item of the same round across bubbles.
func TestExecutablePackerHonoursNoSplit(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	for _, noSplit := range []bool{false, true} {
		cfg, err := Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs, RefreshSteps: 3, NoSplit: noSplit}.normalize()
		if err != nil {
			t.Fatal(err)
		}
		_, _, items, err := packRound(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spilled := 0
		for _, it := range items {
			if it.placed && it.placedEnd-it.placedStart > it.duration {
				spilled++
			}
		}
		if noSplit && spilled > 0 {
			t.Fatalf("NoSplit: %d items spill across bubbles", spilled)
		}
		if !noSplit && spilled == 0 {
			t.Fatal("default packing spilled no item across bubbles; the NoSplit check above proves nothing")
		}
	}
}
