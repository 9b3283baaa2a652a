// Concurrency stress tests for the shared-grammar contract (run with
// -race): one analyzed Grammar served to many goroutines through every
// public concurrent path — pooled parsers, the ParseConcurrent facade,
// and independent per-goroutine parsers — while sharing one Metrics
// registry and one trace writer.
package llstar_test

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// stressGrammar loads one mid-sized benchmark grammar plus inputs that
// every goroutine will parse. RatsJava keeps -race runtime tolerable.
func stressGrammar(t testing.TB) (*llstar.Grammar, bench.Workload, []string) {
	t.Helper()
	w, err := bench.ByName("RatsJava")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]string, 8)
	for i := range inputs {
		inputs[i] = w.Input(int64(i+1), 40)
	}
	return g, w, inputs
}

// TestConcurrentPoolStress hammers one ParserPool from many goroutines.
// Every goroutine also reads analysis reports (Decisions, Summary,
// Warnings) to prove post-analysis state is safely shared, and all
// parsers report to one Metrics registry and one JSONL tracer.
func TestConcurrentPoolStress(t *testing.T) {
	g, w, inputs := stressGrammar(t)
	mx := llstar.NewMetrics()
	tr := llstar.NewJSONLTracer(io.Discard)
	pool := g.NewParserPool(llstar.WithTree(), llstar.WithMetrics(mx), llstar.WithTracer(tr))

	const goroutines = 16
	const parsesEach = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < parsesEach; j++ {
				in := inputs[(i+j)%len(inputs)]
				tree, err := pool.Parse(w.Start, in)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d parse %d: %v", i, j, err)
					return
				}
				if tree == nil {
					errs <- fmt.Errorf("goroutine %d parse %d: nil tree", i, j)
					return
				}
				// Concurrent readers of frozen analysis state.
				if len(g.Decisions()) == 0 || g.Summary() == "" {
					errs <- fmt.Errorf("goroutine %d: empty analysis report", i)
					return
				}
				_ = g.Warnings()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The pool accounts every checkout: hits + misses == gets == puts.
	hits := mx.Counter(llstar.Label("llstar_pool_gets_total", "result", "hit")).Value()
	misses := mx.Counter(llstar.Label("llstar_pool_gets_total", "result", "miss")).Value()
	puts := mx.Counter("llstar_pool_puts_total").Value()
	if hits+misses != goroutines*parsesEach {
		t.Errorf("pool gets %d (hit) + %d (miss) != %d parses", hits, misses, goroutines*parsesEach)
	}
	if puts != hits+misses {
		t.Errorf("pool puts %d != gets %d", puts, hits+misses)
	}
}

// TestConcurrentFacadeAndIndependentParsers mixes the two remaining
// concurrent paths: Grammar.ParseConcurrent (shared lazy pool, exercising
// its sync.Once initialization race) and per-goroutine NewParser
// instances, all against the same Grammar at once.
func TestConcurrentFacadeAndIndependentParsers(t *testing.T) {
	g, w, inputs := stressGrammar(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) { // shared lazy pool
			defer wg.Done()
			if _, err := g.ParseConcurrent(w.Start, inputs[i%len(inputs)]); err != nil {
				errs <- fmt.Errorf("ParseConcurrent %d: %v", i, err)
			}
		}(i)
		go func(i int) { // private parser, reused across parses
			defer wg.Done()
			p := g.NewParser(llstar.WithStats())
			for j := 0; j < 3; j++ {
				if _, err := p.Parse(w.Start, inputs[(i+j)%len(inputs)]); err != nil {
					errs <- fmt.Errorf("private parser %d parse %d: %v", i, j, err)
					return
				}
				if p.Stats() == nil {
					errs <- fmt.Errorf("private parser %d: nil stats", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentAnalysisLoads runs several full parallel analyses of the
// same grammar text at once — the analysis worker pool itself must be
// race-free — and checks the results agree.
func TestConcurrentAnalysisLoads(t *testing.T) {
	w, err := bench.ByName("VB.NET")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	summaries := make([]string, 4)
	errs := make([]error, 4)
	for i := range summaries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := w.LoadFreshWith(llstar.LoadOptions{AnalysisWorkers: 4})
			if err != nil {
				errs[i] = err
				return
			}
			// Strip the timing suffix; the decision census must agree.
			s := g.Summary()
			if j := strings.LastIndex(s, ", analysis "); j >= 0 {
				s = s[:j]
			}
			summaries[i] = s
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	for i := 1; i < len(summaries); i++ {
		if summaries[i] != summaries[0] {
			t.Errorf("concurrent loads disagree:\n%s\n%s", summaries[0], summaries[i])
		}
	}
}

// TestPooledParserStateIsolation checks a recycled parser cannot leak one
// parse's outcome into the next: a failing parse followed by a pooled
// reuse must show a clean slate (no stale errors, fresh stats).
func TestPooledParserStateIsolation(t *testing.T) {
	g, w, inputs := stressGrammar(t)
	pool := g.NewParserPool(llstar.WithStats(), llstar.WithRecovery(5))

	p := pool.Get()
	_, _ = p.Parse(w.Start, "class ! {")
	if len(p.Errors()) == 0 {
		t.Fatal("expected recorded syntax errors")
	}
	pool.Put(p)

	p2 := pool.Get()
	defer pool.Put(p2)
	if _, err := p2.Parse(w.Start, inputs[0]); err != nil {
		t.Fatalf("reused parser failed on valid input: %v", err)
	}
	if n := len(p2.Errors()); n != 0 {
		t.Errorf("reused parser carries %d stale errors", n)
	}
}

// TestConcurrentFirstLex makes the first-ever parse of a freshly loaded
// grammar from eight goroutines at the same moment, so they race to
// build the grammar's shared lexer DFA on first use; every tree must
// equal the one a serial parse yields afterwards.
func TestConcurrentFirstLex(t *testing.T) {
	w, err := bench.ByName("RatsJava")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.LoadFresh()
	if err != nil {
		t.Fatal(err)
	}
	input := w.Input(3, 40)

	const goroutines = 8
	trees := make([]string, goroutines)
	errs := make([]error, goroutines)
	parsers := make([]*llstar.Parser, goroutines)
	for i := range parsers {
		parsers[i] = g.NewParser(llstar.WithTree())
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tree, err := parsers[i].Parse(w.Start, input)
			if err != nil {
				errs[i] = err
				return
			}
			trees[i] = tree.String()
		}(i)
	}
	close(start)
	wg.Wait()

	serial, err := g.NewParser(llstar.WithTree()).Parse(w.Start, input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trees {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if trees[i] != serial.String() {
			t.Fatalf("goroutine %d: tree differs from the serial parse", i)
		}
	}
}
