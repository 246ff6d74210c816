package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/schedule"
)

// smokeOptions shrink a run to a few operations.
func smokeOptions(seed uint64, trace bool) options {
	return options{
		seed: seed, seconds: 0.05, trace: trace,
		lossSteps: lossWindow, minSamples: 1, setupReps: 1, refSteps: 2, refSeed: seed,
		planDecisions: 2,
	}
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEveryWorkload runs each workload for a few operations, untraced
// and traced, and requires every metric BENCHMARK.json names to be printed
// with its unit, in the text lines and in the final JSON line, and the
// run's output checks to pass.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadBenchSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		runW, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, err := runW(smokeOptions(3, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, w.Name, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonReport
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(out.String(), " "+m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s is not printed by name", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestReferenceCheckFailsOnOtherSeed shows each output check accepts the
// reference built from the run's own seed and rejects one built from
// another seed.
func TestReferenceCheckFailsOnOtherSeed(t *testing.T) {
	for name, w := range map[string]trainWorkload{
		"lamb-1f1b": lamb1F1B, "pipefisher-1f1b": pipeFisher1F1B, "pipefisher-ring2": pipeFisherRing2,
	} {
		o := smokeOptions(5, false)
		batches, err := w.spec.batches(o.seed, o.refSteps)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.spec.build(o.seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for len(got) < o.refSteps {
			l, err := tr.round(batches[len(got) : len(got)+w.spec.round])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, l...)
		}
		tr.close()
		if err := referenceCheck(w.reference, o, got); err != nil {
			t.Errorf("%s: reference from the same seed: %v", name, err)
		}
		o.refSeed = 6
		if err := referenceCheck(w.reference, o, got); err == nil {
			t.Errorf("%s: reference from another seed passed the check", name)
		}
	}

	p, err := newPlanner()
	if err != nil {
		t.Fatal(err)
	}
	a := p.perturbed(newCostRNG(5))
	b := p.perturbed(newCostRNG(6))
	preds := schedule.RankCandidates(a, p.cands)
	if err := sameRanking(0, preds, schedule.RankCandidates(a, p.cands)); err != nil {
		t.Errorf("plan-bert-large: ranking the same costs: %v", err)
	}
	if err := sameRanking(0, preds, schedule.RankCandidates(b, p.cands)); err == nil {
		t.Error("plan-bert-large: ranking costs of another seed passed the check")
	}
	if err := checkRanking(a, preds); err != nil {
		t.Errorf("plan-bert-large: %v", err)
	}
	if err := checkRanking(b, preds); err == nil {
		t.Error("plan-bert-large: a winner predicted on another seed's costs passed the check")
	}
}

// TestRankingCheckFailsOnWrongOrder shows the planning check rejects a
// ranking that is not fastest first.
func TestRankingCheckFailsOnWrongOrder(t *testing.T) {
	p, err := newPlanner()
	if err != nil {
		t.Fatal(err)
	}
	base := p.perturbed(newCostRNG(5))
	preds := schedule.RankCandidates(base, p.cands)
	if preds[0].StepTime == preds[len(preds)-1].StepTime {
		t.Fatal("every candidate has the same step time; the order check is not exercised")
	}
	reversed := slices.Clone(preds)
	slices.Reverse(reversed)
	if err := checkRanking(base, reversed); err == nil {
		t.Error("a ranking sorted slowest first passed the check")
	}
}

// TestTransportBytesRepeat requires the traced ring workload's bytes per
// step to repeat exactly across runs of the same seed.
func TestTransportBytesRepeat(t *testing.T) {
	var first float64
	for i := 0; i < 2; i++ {
		rep, err := runTrain(pipeFisherRing2, smokeOptions(7, true))
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Fatalf("run %d: %d checks failed: %v", i, rep.failed, rep.lines)
		}
		got := -1.0
		for _, m := range rep.metrics {
			if m.name == "transport.bytes_per_step" {
				got = m.value
			}
		}
		if got <= 0 {
			t.Fatalf("run %d: transport.bytes_per_step = %v", i, got)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("transport.bytes_per_step %v, then %v on the same seed", first, got)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      50ms 50.00% 50.00%       50ms 50.00%  repro/internal/tensor.(*Matrix).MatMulInto
      20ms 20.00% 70.00%       20ms 20.00%  runtime.mallocgc
      10ms 10.00% 80.00%       10ms 10.00%  internal/runtime/syscall.Syscall6
      10ms 10.00% 90.00%       10ms 10.00%  repro/internal/engine.(*stage).run.func1 (inline)
      10ms 10.00%   100%       10ms 10.00%  sync.(*Mutex).Lock
`)
	top, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if top.total != 100 || top.self["tensor"] != 50 || top.self["runtime"] != 30 || top.self["engine"] != 10 || len(top.self) != 3 {
		t.Errorf("total %v, self %v", top.total, top.self)
	}
	if got := top.cum["repro/internal/engine.(*stage).run.func1"]; got != 10 {
		t.Errorf("cum of an inlined function = %v, want 10", got)
	}
	if got := top.cum["repro/internal/tensor.(*Matrix).MatMulInto"]; got != 50 {
		t.Errorf("cum of MatMulInto = %v, want 50", got)
	}
}
