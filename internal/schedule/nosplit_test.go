package schedule

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/pipeline"
)

// TestNoSplitAblation quantifies the paper's spilling rule ("otherwise,
// subsequent bubbles are utilized"): forbidding splits must never speed up
// the refresh and typically strands work or delays it.
func TestNoSplitAblation(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	split, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs, NoSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if split.Unassigned != 0 {
		t.Fatalf("splitting packer stranded %d items", split.Unassigned)
	}
	// Either the refresh is slower or some items no longer fit.
	if whole.RefreshSteps < split.RefreshSteps && whole.Unassigned == 0 {
		t.Fatalf("NoSplit cannot be strictly better: refresh %d vs %d, unassigned %d",
			whole.RefreshSteps, split.RefreshSteps, whole.Unassigned)
	}
	// NoSplit events still never overlap.
	tl := whole.Timeline
	for d := 0; d < tl.Devices; d++ {
		for i := 1; i < len(tl.Events[d]); i++ {
			if tl.Events[d][i].Start < tl.Events[d][i-1].End {
				t.Fatalf("device %d: NoSplit events overlap", d)
			}
		}
	}
}

// TestNoSplitEventsAreWhole verifies that with NoSplit every K-FAC event
// carries its item's full duration (no fragments).
func TestNoSplitEventsAreWhole(t *testing.T) {
	costs := paperCosts(t, 3, 32, arch.BERTBase, 1)
	res, err := Assign(Config{Method: "gpipe", Stages: 4, MicroBatches: 4, Costs: costs, NoSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	// Collect the set of allowed whole durations.
	allowed := map[int64]bool{}
	for _, u := range costs.CurvatureUnits {
		allowed[int64(u)] = true
	}
	for _, u := range costs.InversionUnits {
		allowed[int64(u)] = true
	}
	tl := res.Timeline
	for d := 0; d < tl.Devices; d++ {
		for _, e := range tl.Events[d] {
			if e.Op.Kind != pipeline.Curvature && e.Op.Kind != pipeline.Inversion {
				continue // base schedule event
			}
			if !allowed[int64(e.Duration())] {
				t.Fatalf("NoSplit produced a fragment of %d us (kind %s)", e.Duration(), e.Op.Kind)
			}
		}
	}
}
