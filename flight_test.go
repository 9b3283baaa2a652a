package llstar_test

import (
	"strings"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// TestFlightRecorderCapturesParse: a recorder installed at
// construction rides the parse and retains the event tail, bounded by
// its capacity.
func TestFlightRecorderCapturesParse(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	rec := llstar.NewFlightRecorder(32)
	p := g.NewParser(llstar.WithFlightRecorder(rec))
	input := strings.Repeat("- ", 10) + "5 !"
	if _, err := p.Parse("t", input); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	names := map[string]bool{}
	for _, e := range rec.Events() {
		names[e.Name] = true
	}
	if !names["predict"] {
		t.Errorf("no predict events in %v", names)
	}

	// A tiny ring keeps only the tail and reports the overflow.
	tiny := llstar.NewFlightRecorder(4)
	p2 := g.NewParser(llstar.WithFlightRecorder(tiny))
	if _, err := p2.Parse("t", input); err != nil {
		t.Fatal(err)
	}
	if tiny.Len() != 4 || tiny.Dropped() == 0 {
		t.Errorf("tiny ring: len=%d dropped=%d", tiny.Len(), tiny.Dropped())
	}
}

// TestFlightRecorderTeesWithTracer: a flight recorder rides alongside
// a construction-time tracer — both sinks see the runtime events.
func TestFlightRecorderTeesWithTracer(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tw := llstar.NewJSONLTracer(&buf)
	rec := llstar.NewFlightRecorder(64)
	p := g.NewParser(llstar.WithTracer(tw), llstar.WithFlightRecorder(rec))
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("recorder saw nothing while teed")
	}
	if !strings.Contains(buf.String(), "predict") {
		t.Error("tracer saw nothing while teed")
	}
}

// TestSetFlightRecorderAttachDetach: the pooled-parser pattern — a
// parser constructed without a recorder gains one per request and
// sheds it afterwards, repeatedly.
func TestSetFlightRecorderAttachDetach(t *testing.T) {
	g, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	p := g.NewParser()
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}

	rec := llstar.NewFlightRecorder(64)
	p.SetFlightRecorder(rec)
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	attached := rec.Len()
	if attached == 0 {
		t.Fatal("attached recorder captured nothing")
	}

	p.SetFlightRecorder(nil)
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != attached {
		t.Errorf("detached recorder still receiving: %d -> %d", attached, rec.Len())
	}

	// Reattach after Reset: the cycle is repeatable (sync.Pool reuse).
	rec.Reset()
	p.SetFlightRecorder(rec)
	if _, err := p.Parse("t", "5 !"); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("reattached recorder captured nothing")
	}
}

// TestFlightDisabledOverheadGuard enforces the cost contract from
// docs/observability.md deterministically: a parser with no flight
// recorder — never attached, given a nil recorder, or attached then
// detached — runs on the nil tracer (a single nil check per
// instrumentation site), allocates per parse exactly what a bare
// parser does, and sends a detached recorder no events, while an
// attached one sees exactly the events a construction-time recorder
// does. BenchmarkFlightOverhead reports the timing.
func TestFlightDisabledOverheadGuard(t *testing.T) {
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	input := w.Input(1, 120)
	rec := llstar.NewFlightRecorder(64)
	seen := func() int { return rec.Len() + int(rec.Dropped()) }
	variants := map[string]func(*llstar.Parser){
		"bare": func(*llstar.Parser) {},
		"nil":  func(p *llstar.Parser) { p.SetFlightRecorder(nil) },
		"detached": func(p *llstar.Parser) {
			p.SetFlightRecorder(rec)
			p.SetFlightRecorder(nil)
		},
	}
	allocs := map[string]float64{}
	for name, prep := range variants {
		p := g.NewParser()
		prep(p)
		if tr := llstar.RuntimeTracer(p); tr != nil {
			t.Errorf("%s flight recorder: runtime tracer is %T, want nil", name, tr)
		}
		if !raceEnabled {
			allocs[name] = allocsPerParse(t, p, w.Start, input)
		}
	}
	if allocs["nil"] != allocs["bare"] || allocs["detached"] != allocs["bare"] {
		t.Errorf("flight recorder allocs/op: %v", allocs)
	}
	if n := seen(); n != 0 {
		t.Errorf("detached recorder received %d events", n)
	}

	p := g.NewParser()
	p.SetFlightRecorder(rec)
	if _, err := p.Parse(w.Start, input); err != nil {
		t.Fatal(err)
	}
	attached := seen()
	rec = llstar.NewFlightRecorder(64)
	if _, err := g.NewParser(llstar.WithFlightRecorder(rec)).Parse(w.Start, input); err != nil {
		t.Fatal(err)
	}
	if attached == 0 || seen() != attached {
		t.Errorf("events: attached recorder %d, construction-time recorder %d", attached, seen())
	}
}
