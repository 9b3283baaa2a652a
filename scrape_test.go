package llstar_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llstar"
	"llstar/internal/bench"
)

// semGrammar exercises all three semantic-predicate outcomes: bound
// true, bound false, and unbound (an evaluation error).
const semGrammar = `
grammar Sem;
s : t ';' ;
t : {isType()}? ID ID
  | {unbound()}? ID ID
  | ID '=' INT
  ;
ID : ('a'..'z'|'A'..'Z')+ ;
INT : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`

// semHooks binds isType() and leaves unbound() unbound.
var semHooks = llstar.Hooks{Preds: map[string]func(*llstar.Context) bool{
	"isType()": func(ctx *llstar.Context) bool { return ctx.Stream.LT(1).Text == "T" },
}}

// corpusRecord, passed to scrapeCorpus, turns on stats and a coverage
// profile for each of its library parsers and logs every parse's stats.
type corpusRecord struct {
	log    bytes.Buffer
	labels []string
	covs   []*llstar.CoverageProfile
}

// opts returns the options that turn the record on for one parser
// (none for a nil record); label names its coverage profile.
func (r *corpusRecord) opts(label string, g *llstar.Grammar) []llstar.ParserOption {
	if r == nil {
		return nil
	}
	cov := g.NewCoverage()
	r.labels = append(r.labels, label)
	r.covs = append(r.covs, cov)
	return []llstar.ParserOption{llstar.WithStats(), llstar.WithCoverage(cov)}
}

// parsed logs p's stats after a parse of input under label.
func (r *corpusRecord) parsed(label, input string, p *llstar.Parser) {
	if r == nil {
		return
	}
	st := p.Stats()
	fmt.Fprintf(&r.log, "%s %d bytes: %s\n", label, len(input), st)
	for d, ds := range st.Decisions {
		if ds.Events > 0 {
			fmt.Fprintf(&r.log, "  d%d events=%d sumK=%d maxK=%d backtracks=%d sumBacktrackK=%d\n",
				d, ds.Events, ds.SumK, ds.MaxK, ds.BacktrackEvents, ds.SumBacktrackK)
		}
	}
}

// scrapeCorpus parses a fixed corpus with metrics into reg: every
// benchmark grammar on a valid and a truncated input through one reused
// parser, a recovering parse, an incremental session with an edit, a
// PEG-mode grammar with memoized speculation, and semantic predicates.
// A non-nil rec also gives the library parsers stats and coverage.
func scrapeCorpus(t *testing.T, reg *llstar.Metrics, rec *corpusRecord) {
	t.Helper()
	for i, w := range bench.Workloads {
		g, err := w.Load()
		if err != nil {
			t.Fatal(err)
		}
		p := g.NewParser(append(rec.opts(w.Name, g), llstar.WithTree(), llstar.WithMetrics(reg))...)
		input := w.Input(int64(7+i), 40)
		if _, err := p.Parse(w.Start, input); err != nil {
			t.Fatalf("%s: valid input rejected: %v", w.Name, err)
		}
		rec.parsed(w.Name, input, p)
		if _, err := p.Parse(w.Start, input[:len(input)/2]); err == nil {
			t.Fatalf("%s: truncated input accepted", w.Name)
		}
		rec.parsed(w.Name, input[:len(input)/2], p)
	}

	java, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := java.Load()
	if err != nil {
		t.Fatal(err)
	}
	input := java.Input(3, 40)
	lines := strings.SplitAfter(input, "\n")
	for i := 5; i < len(lines); i += 9 {
		lines[i] = ") ) " + lines[i]
	}
	rp := g.NewParser(append(rec.opts("Java1.5/recover", g), llstar.WithRecovery(50), llstar.WithMetrics(reg))...)
	bad := strings.Join(lines, "")
	rp.Parse(java.Start, bad)
	rec.parsed("Java1.5/recover", bad, rp)
	if len(rp.Errors()) < 2 {
		t.Fatalf("recovering parse found %d errors", len(rp.Errors()))
	}

	s, err := g.NewSession(llstar.WithIncremental(), llstar.WithSessionMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(input); off += 512 {
		if err := s.Feed([]byte(input[off:min(off+512, len(input))])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	off := strings.Index(input, "return")
	if off < 0 {
		t.Fatal("no edit site in the session document")
	}
	if err := s.Edit(llstar.Edit{Offset: off, NewText: "x = 1; "}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fig2, err := llstar.Load("fig2.g", fig2Src)
	if err != nil {
		t.Fatal(err)
	}
	fp := fig2.NewParser(append(rec.opts("fig2", fig2), llstar.WithMetrics(reg))...)
	for _, in := range []string{"- - 5 !", "- 5 ;", "- - 5 ?"} {
		fp.Parse("t", in)
		rec.parsed("fig2", in, fp)
	}

	sem, err := llstar.Load("sem.g", semGrammar)
	if err != nil {
		t.Fatal(err)
	}
	sp := sem.NewParser(append(rec.opts("sem", sem), llstar.WithHooks(semHooks), llstar.WithMetrics(reg))...)
	for _, in := range []string{"T x ;", "v = 3 ;", "a b ;"} {
		sp.Parse("s", in)
		rec.parsed("sem", in, sp)
	}
}

// TestScrapeOracle locks the scrape of the runtime parse metrics to
// golden files: the same corpus must produce the same series, counts,
// sums and maxima byte for byte, however the parser records them
// internally. The Prometheus text carries buckets, sums and counts; the
// JSON export adds each histogram's max. Regenerate (only for an
// intended change to the metric vocabulary) with
//
//	UPDATE_GOLDEN=1 go test . -run TestScrapeOracle
func TestScrapeOracle(t *testing.T) {
	reg := llstar.NewMetrics()
	scrapeCorpus(t, reg, nil)
	var prom, js bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scrape_golden.prom", prom.Bytes())
	checkGolden(t, "scrape_golden.json", js.Bytes())

	// Series appear only once they have an event: scrape a fresh
	// registry after each parse of a small grammar, whose first parse
	// predicts by lookahead alone and whose later ones add predicate
	// outcomes and a syntax error.
	var steps bytes.Buffer
	sem, err := llstar.Load("sem.g", semGrammar)
	if err != nil {
		t.Fatal(err)
	}
	reg = llstar.NewMetrics()
	p := sem.NewParser(llstar.WithHooks(semHooks), llstar.WithMetrics(reg))
	for _, in := range []string{"v = 3 ;", "T x ;", "a b ;"} {
		p.Parse("s", in)
		fmt.Fprintf(&steps, "# after %q\n", in)
		if err := reg.WriteJSON(&steps); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "scrape_steps_golden.json", steps.Bytes())
}

// TestRecordOracle locks what stats and coverage record over the
// scrape corpus: every parse's ParseStats summary and per-decision
// counters, and each parser's coverage snapshot, report and hotspot
// table at the end. The metrics scrape of the same run must still match
// TestScrapeOracle's goldens, so turning stats and coverage on does not
// perturb the metrics. Regenerate (only for an intended change to what
// is recorded) with
//
//	UPDATE_GOLDEN=1 go test . -run TestRecordOracle
func TestRecordOracle(t *testing.T) {
	reg := llstar.NewMetrics()
	rec := &corpusRecord{}
	scrapeCorpus(t, reg, rec)
	var prom, js bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scrape_golden.prom", prom.Bytes())
	checkGolden(t, "scrape_golden.json", js.Bytes())
	checkGolden(t, "record_stats_golden.txt", rec.log.Bytes())

	var snaps, reports bytes.Buffer
	for i, cov := range rec.covs {
		s := cov.Snapshot()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&snaps, "# %s\n%s\n", rec.labels[i], b)
		fmt.Fprintf(&reports, "# %s\n", rec.labels[i])
		if err := s.WriteReport(&reports); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteHotspots(&reports, 10); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "record_cover_golden.json", snaps.Bytes())
	checkGolden(t, "record_cover_golden.txt", reports.Bytes())
}

// checkGolden compares got with testdata/name (rewriting it first when
// UPDATE_GOLDEN is set) and reports the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// TestMetricsAllocFree: runtime metrics are recorded in plain integers
// and merged through cached handles, so once a reused parser has
// resolved its handles (one warm-up parse) a parse with metrics
// allocates exactly what a parse without them does.
func TestMetricsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates on its own schedule")
	}
	w, err := bench.ByName("Java1.5")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	input := w.Input(1, 120)
	off := allocsPerParse(t, g.NewParser(), w.Start, input)
	on := allocsPerParse(t, g.NewParser(llstar.WithMetrics(llstar.NewMetrics())), w.Start, input)
	if on != off {
		t.Errorf("allocs/op: without metrics %v, with metrics %v", off, on)
	}
}
