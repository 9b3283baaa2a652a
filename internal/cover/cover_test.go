package cover

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llstar/internal/core"
)

func testMeta() Meta {
	return Meta{
		Grammar: "test",
		Decisions: []DecisionMeta{
			{ID: 0, Rule: "expr", Desc: "expr alts", Class: "fixed", NAlts: 2, DFAStates: 3},
			{ID: 1, Rule: "stat", Desc: "stat alts", Class: "cyclic", NAlts: 3, DFAStates: 4},
			{ID: 2, Rule: "decl", Desc: "decl alts", Class: "backtrack", NAlts: 2, DFAStates: 0},
		},
		Rules: []string{"expr", "stat", "decl"},
	}
}

// testClass is testMeta's static decision classes.
var testClass = []core.Class{core.ClassFixed, core.ClassCyclic, core.ClassBacktrack}

// newRec returns a record over testMeta that flushes into p (nil for
// none).
func newRec(p *Profile) *Recorder {
	meta := testMeta()
	return NewRecorder(&meta, testClass, p)
}

func TestRecorderFlushSnapshot(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRec(p)

	r.Prediction(0, 1, 1, false, false) // LL(1)
	r.Prediction(0, 2, 3, false, false) // LL(k)
	r.Prediction(1, 2, 5, false, false) // cyclic class
	r.Prediction(2, 1, 2, true, false)  // backtracked
	r.Prediction(2, 0, 2, true, true)   // failed
	r.State(0, 0)
	r.Edge(0, 2)
	r.Edge(0, 2)
	r.Speculation(2, 10, 1, false, true)
	r.Speculation(2, 4, 2, true, false)
	r.Resync(1, 3)
	r.Rule(0)
	r.Rule(0)
	r.Rule(2)
	r.Memo(2, true)
	r.Memo(2, false)
	r.Sempred(true, nil)
	r.Sempred(false, nil)
	r.Sempred(false, errors.New("unbound"))
	r.SyntaxErrors++
	r.EndParse(42, false)

	// What only stats and metrics read stays in the record.
	if k := r.K[0]; k.SumK != 4 || k.SumBacktrackK != 0 || k.Depth != (Buckets{1, 0, 1}) {
		t.Fatalf("d0 lookahead: %+v", k)
	}
	if k := r.K[2]; k.SumK != 4 || k.SumBacktrackK != 4 || k.Depth != (Buckets{0, 2}) {
		t.Fatalf("d2 lookahead: %+v", k)
	}
	if r.SpecDepth != (Buckets{0, 0, 1, 0, 1}) || r.SpecMax != 10 {
		t.Fatalf("speculation depth: %v max %d", r.SpecDepth, r.SpecMax)
	}
	if r.Synpreds != [2]int64{1, 0} || r.Sempreds != [3]int64{1, 1, 1} || r.SyntaxErrors != 1 {
		t.Fatalf("per-parse counts: synpreds %v sempreds %v errors %d", r.Synpreds, r.Sempreds, r.SyntaxErrors)
	}
	r.Flush()

	// Flush cleared the record and kept its shape.
	if r.K[2] != (DecisionK{}) || r.SpecDepth != (Buckets{}) || r.SpecMax != 0 ||
		r.Synpreds != [2]int64{} || r.Sempreds != [3]int64{} || r.SyntaxErrors != 0 || r.Parses != 0 {
		t.Fatalf("flush left per-parse counts: %+v", r)
	}
	if len(r.K) != 3 || len(r.Decisions[1].Alts) != 3 || len(r.Decisions[1].StatesVisited) != 4 {
		t.Fatalf("flush lost the record's shape")
	}

	s := p.Snapshot()
	if s.Parses != 1 || s.Tokens != 42 || s.ParseErrors != 0 {
		t.Fatalf("parse totals: %+v", s)
	}
	d0 := s.Decisions[0]
	if d0.Predictions != 2 || d0.Strategy[StratLL1] != 1 || d0.Strategy[StratLLk] != 1 {
		t.Fatalf("d0 strategies: %+v", d0)
	}
	if d0.MaxK != 3 || d0.EdgesTaken != 2 || d0.StatesCovered() != 2 || d0.AltsCovered() != 2 {
		t.Fatalf("d0 detail: %+v", d0)
	}
	d1 := s.Decisions[1]
	if d1.Strategy[StratCyclic] != 1 || d1.Resyncs != 1 || d1.ResyncTokens != 3 {
		t.Fatalf("d1: %+v", d1)
	}
	d2 := s.Decisions[2]
	if d2.Strategy[StratBacktrack] != 2 || d2.Errors != 1 {
		t.Fatalf("d2 strategies: %+v", d2)
	}
	if d2.SpecEvents != 2 || d2.SpecTokens != 14 || d2.WastedSpecEvents != 1 || d2.WastedSpecTokens != 10 || d2.MaxSpecDepth != 2 {
		t.Fatalf("d2 speculation: %+v", d2)
	}
	if d2.AltsCovered() != 1 {
		t.Fatalf("d2 alts (failed prediction must not count an alt): %+v", d2.Alts)
	}
	if s.Rules[0].Invocations != 2 || s.Rules[2].MemoHits != 1 || s.Rules[2].MemoMisses != 1 {
		t.Fatalf("rules: %+v", s.Rules)
	}

	// Flush cleared the recorder: a second flush adds nothing.
	r.Flush()
	if s2 := p.Snapshot(); !reflect.DeepEqual(s, s2) {
		t.Fatalf("double flush changed profile:\n%+v\n%+v", s, s2)
	}
}

func TestStrategyCountsSumToPredictions(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRec(p)
	for i := 0; i < 100; i++ {
		r.Prediction(i%3, 1+i%2, 1+i%4, i%5 == 0, i%7 == 0)
	}
	r.Flush()
	s := p.Snapshot()
	for i, d := range s.Decisions {
		var sum int64
		for _, n := range d.Strategy {
			sum += n
		}
		if sum != d.Predictions {
			t.Fatalf("decision %d: strategy sum %d != predictions %d", i, sum, d.Predictions)
		}
	}
}

// TestMergeEqualsSum verifies the acceptance property driving the
// design: flushing many recorders concurrently into one profile yields
// exactly the element-wise sum of the individual contributions.
func TestMergeEqualsSum(t *testing.T) {
	merged := NewProfile(testMeta())
	var parts []*Snapshot
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			solo := NewProfile(testMeta())
			for _, p := range []*Profile{merged, solo} {
				r := newRec(p)
				for i := 0; i < 50+w; i++ {
					dec := (i + w) % 3
					r.Prediction(dec, 1+i%2, 1+(i+w)%5, dec == 2, false)
					r.State(dec, i%4)
					r.Edge(dec, 1)
					if dec == 2 {
						r.Speculation(dec, i%9, 1, i%2 == 0, false)
					}
					r.Rule(dec)
					r.Memo(dec, i%3 == 0)
				}
				r.EndParse(int64(100+w), w%2 == 0)
				r.Flush()
			}
			mu.Lock()
			parts = append(parts, solo.Snapshot())
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	sum := NewProfile(testMeta())
	for _, s := range parts {
		sum.Merge(s)
	}
	a, b := merged.Snapshot(), sum.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merged profile != sum of per-parse profiles\nmerged: %+v\nsum:    %+v", a, b)
	}
}

// TestRecorderWithoutProfile: a record with no profile (stats or
// metrics only) records the same facts, and its flush only clears it.
func TestRecorderWithoutProfile(t *testing.T) {
	r := newRec(nil)
	r.Prediction(1, 2, 5, false, false)
	r.Prediction(2, 1, 3, true, false)
	r.Rule(0)
	r.EndParse(9, true)
	if d := r.Decisions[1]; d.Predictions != 1 || d.Strategy[StratCyclic] != 1 || d.MaxK != 5 {
		t.Fatalf("d1: %+v", d)
	}
	if r.K[2].SumBacktrackK != 3 || r.Parses != 1 || r.ParseErrors != 1 || r.Tokens != 9 {
		t.Fatalf("record: %+v", r)
	}
	r.Flush()
	if r.Decisions[1].Predictions != 0 || r.K[2].SumBacktrackK != 0 || r.Rules[0].Invocations != 0 || r.Parses != 0 {
		t.Fatalf("flush did not clear the record: %+v", r)
	}
}

func TestResetClearsCountersKeepsShape(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRec(p)
	r.Prediction(0, 1, 1, false, false)
	r.State(1, 2)
	r.EndParse(5, true)
	r.Flush()
	p.Reset()
	s := p.Snapshot()
	if s.Parses != 0 || s.ParseErrors != 0 || s.Tokens != 0 {
		t.Fatalf("reset totals: %+v", s)
	}
	for i, d := range s.Decisions {
		if d.Predictions != 0 || d.StatesCovered() != 0 || d.AltsCovered() != 0 {
			t.Fatalf("decision %d not cleared: %+v", i, d)
		}
		if len(d.Alts) != testMeta().Decisions[i].NAlts {
			t.Fatalf("decision %d lost alt shape", i)
		}
	}
}

func TestOutOfRangeEventsIgnored(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRec(p)
	r.Prediction(-1, 1, 1, false, false)
	r.Prediction(99, 1, 1, false, false)
	r.Prediction(0, 99, 1, false, false) // alt out of range: counted, alt dropped
	r.State(0, 99)
	r.State(99, 0)
	r.Edge(-5, 0)
	r.Speculation(42, 3, 1, false, false)
	r.Resync(-1, 2)
	r.Rule(99)
	r.Memo(-1, true)
	for i, k := range r.K {
		if k != (DecisionK{}) && i != 0 {
			t.Fatalf("out-of-range prediction reached decision %d: %+v", i, k)
		}
	}
	r.Flush()
	s := p.Snapshot()
	if s.Decisions[0].Predictions != 1 || s.Decisions[0].AltsCovered() != 0 {
		t.Fatalf("out-of-range alt handling: %+v", s.Decisions[0])
	}
	if s.Decisions[0].StatesCovered() != 0 {
		t.Fatalf("out-of-range state recorded")
	}
}

func TestReportAndHotspots(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRec(p)
	r.Prediction(0, 1, 1, false, false)
	r.State(0, 0)
	r.Prediction(2, 1, 3, true, false)
	r.Speculation(2, 81, 1, false, false)
	r.Speculation(2, 19, 1, true, false)
	r.Rule(0)
	r.Rule(2)
	r.EndParse(100, false)
	r.Flush()
	s := p.Snapshot()

	var rep bytes.Buffer
	if err := s.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"grammar coverage: test",
		"rules      2/3",
		"rules never invoked (1):",
		"stat",                            // the uncovered rule
		"decisions never exercised (1):",  // d1 untouched
		"alternatives never chosen:",      // d0 alt 2, d2 alt 2
		"DFA states never visited:",       // d0 visited 1 of 3
		"backtrack            1 (50.00%)", // strategy split
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	hs := s.Hotspots()
	if len(hs) != 2 {
		t.Fatalf("want 2 exercised decisions, got %d", len(hs))
	}
	if hs[0].Meta.ID != 2 {
		t.Fatalf("hottest should be d2 (wasted tokens), got d%d", hs[0].Meta.ID)
	}
	if hs[0].WastedShare != 1.0 {
		t.Fatalf("d2 wasted share: %v", hs[0].WastedShare)
	}

	var hot bytes.Buffer
	if err := s.WriteHotspots(&hot, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hot.String(), "hottest: decision 2 in decl caused 100% of wasted speculation tokens (81 of 81)") {
		t.Errorf("hotspot headline missing:\n%s", hot.String())
	}

	var html bytes.Buffer
	if err := s.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	h := html.String()
	for _, want := range []string{"<!DOCTYPE html>", "Grammar coverage", "decl", "wasted spec tokens", "Rules never invoked"} {
		if !strings.Contains(h, want) {
			t.Errorf("html missing %q", want)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	p := NewProfile(testMeta())
	r := newRec(p)
	r.Prediction(0, 1, 2, false, false)
	r.EndParse(7, false)
	r.Flush()
	s := p.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Meta.Grammar != "test" || back.Parses != 1 || back.Decisions[0].Predictions != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	// A merged round-tripped snapshot behaves like the original.
	p2 := NewProfile(testMeta())
	p2.Merge(&back)
	if got := p2.Snapshot(); !reflect.DeepEqual(got.Decisions, s.Decisions) {
		t.Fatalf("merge of unmarshaled snapshot differs")
	}
}
