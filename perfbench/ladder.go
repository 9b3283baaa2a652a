package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"llstar"
	"llstar/internal/lexrt"
	"llstar/internal/obs"
)

// The layer ladder runs the same inputs through each layer's public
// entry point in turn, so the difference between adjacent rungs is that
// layer's cost. Library rungs parse the 2000-line batch inputs; server
// rungs the 200-line request bodies. Rungs are interleaved and their
// order rotates from round to round, so drift hits every rung alike.
const (
	ladderRounds = 11
	rungLex      = "lex"       // lexrt.New + NextToken to EOF (2000 lines)
	rungParse    = "parse"     // Parser.Parse, no options (2000 lines)
	rungTree     = "tree"      // Parser.Parse with WithTree() (2000 lines)
	rungLex2     = "lex200"    // as lex, on the 200-line request input
	rungParse2   = "parse200"  // as parse, 200 lines
	rungTree2    = "tree200"   // as tree, 200 lines
	rungInstr    = "instr200"  // the server pool's options + a flight recorder
	rungHandler  = "handler"   // Handler().ServeHTTP through httptest
	rungHTTP     = "http"      // loopback POST to one server
	rungDirect   = "direct"    // loopback POST to the grammar's fleet owner
	rungProxied  = "proxied"   // loopback POST to the non-owner, one proxy hop
	rungAnalysis = "analysis"  // cold llstar.LoadWith
	rungWarm     = "warm_load" // UnmarshalAnalysis of MarshalAnalysis bytes
	rungEdit     = "edit"      // Session.Edit
	rungFull     = "full_parse"
)

var grammarRungs = []string{rungLex, rungParse, rungTree, rungLex2, rungParse2, rungTree2,
	rungInstr, rungHandler, rungHTTP, rungDirect, rungProxied, rungAnalysis, rungWarm}

// cell holds one rung's samples on one grammar or document: time in µs,
// allocations and bytes per call.
type cell struct {
	us, allocs, bytes []float64
}

// ladderEnv is everything the ladder calls into.
type ladderEnv struct {
	specs    []gspec
	seed     int64
	libLines int
	rounds   int
	dir      string

	lib, req       []string    // one input per grammar
	libRef, reqRef []reference // references for them
	tokens         []int       // lexrt tokens of lib

	single   *replica
	fleet    []*replica
	owner    map[string]string
	client   *http.Client
	gs       []*llstar.Grammar
	plain    []*llstar.Parser
	tree     []*llstar.Parser
	instr    []*llstar.Parser
	flight   *llstar.FlightRecorder
	artifact [][]byte
	digests  []string
	targets  []target // single server
	direct   []target // fleet owner
	proxied  []target // fleet non-owner
	docs     []*editDoc

	cells      map[string]map[string]*cell // subject -> rung -> samples
	relexed    map[string][]int
	reused     map[string][]int
	respBytes  []int
	proxiedN   int
	proxiedPct float64
}

func newLadder(specs []gspec, seed int64, dir string) *ladderEnv {
	return &ladderEnv{specs: specs, seed: seed, libLines: batchLines, rounds: ladderRounds, dir: dir}
}

// setup boots one single server and a two-replica fleet, builds the
// parsers and opens the session documents. It is not timed.
func (l *ladderEnv) setup() error {
	gdir := filepath.Join(l.dir, "grammars")
	if err := writeGrammarDir(gdir, l.specs); err != nil {
		return err
	}
	var err error
	if l.single, err = bootSingle(gdir); err != nil {
		return err
	}
	if l.fleet, err = bootFleet(gdir, filepath.Join(l.dir, "ladder-cache")); err != nil {
		return err
	}
	l.client = newClient(8)
	if l.owner, err = placement(l.client, l.fleet); err != nil {
		return err
	}
	l.flight = llstar.NewFlightRecorder(0)
	for _, g := range l.specs {
		e, err := l.single.srv.Registry().Get(g.name)
		if err != nil {
			return err
		}
		lib := genInputs(g, l.seed, l.libLines, 1)[0]
		req := genInputs(g, l.seed, serveLines, 1)[0]
		libRef, err := oracle(e.G, g.name, g.w.Start, g.w.Mode == "PEG", lib)
		if err != nil {
			return err
		}
		reqRef, err := oracle(e.G, g.name, g.w.Start, g.w.Mode == "PEG", req)
		if err != nil {
			return err
		}
		l.lib, l.req = append(l.lib, lib), append(l.req, req)
		l.libRef, l.reqRef = append(l.libRef, libRef), append(l.reqRef, reqRef)
		n, err := countTokens(e.G, lib)
		if err != nil {
			return err
		}
		l.tokens = append(l.tokens, n)
		l.gs = append(l.gs, e.G)
		l.plain = append(l.plain, e.G.NewParser())
		l.tree = append(l.tree, e.G.NewParser(llstar.WithTree()))
		mx := llstar.NewMetrics()
		l.instr = append(l.instr, e.G.NewParser(llstar.WithTree(), llstar.WithStats(),
			llstar.WithMetrics(mx), llstar.WithCoverage(e.G.NewCoverage())))
		art, err := e.G.MarshalAnalysis()
		if err != nil {
			return err
		}
		l.artifact = append(l.artifact, art)
		l.digests = append(l.digests, e.G.AnalysisDigest())
		body, err := json.Marshal(parseBody{Grammar: g.name, Rule: g.w.Start, Input: req})
		if err != nil {
			return err
		}
		t := target{grammar: g.name, bodies: [][]byte{body}, refs: []reference{reqRef}}
		single, direct, proxied := t, t, t
		single.url = "http://" + l.single.addr + "/v1/parse"
		direct.url, proxied.url = parseURLs(l.fleet, l.owner[g.name])
		proxied.owner = l.owner[g.name]
		l.targets = append(l.targets, single)
		l.direct = append(l.direct, direct)
		l.proxied = append(l.proxied, proxied)
	}
	for i, d := range docSpecs(l.specs, l.seed) {
		g, s, err := openDoc(d)
		if err != nil {
			return err
		}
		if _, err := oracle(g, d.name, d.rule, d.pegMode, d.text); err != nil {
			return err
		}
		edits, err := genEdits(g, d.text, l.seed+int64(i), editReplay)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		l.docs = append(l.docs, &editDoc{spec: d, g: g, s: s, edits: edits})
	}
	return nil
}

func (l *ladderEnv) close() {
	l.single.close()
	for _, r := range l.fleet {
		r.close()
	}
	for _, d := range l.docs {
		d.s.Close()
	}
	if l.client != nil {
		l.client.CloseIdleConnections()
	}
}

func countTokens(g *llstar.Grammar, input string) (int, error) {
	lx := lexrt.New(g.AnalysisResult().Machine.Lex, input)
	n := 0
	for {
		t, err := lx.NextToken()
		if err != nil {
			return n, err
		}
		if t.IsEOF() {
			return n, nil
		}
		n++
	}
}

// sample times one call and counts its allocations. Allocation counts
// are process-wide, so server goroutines serving the call are included.
func (l *ladderEnv) sample(subject, rung, trace string, parent int64, tr *tracer, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s %s: %w", subject, rung, err)
	}
	tr.add(0, rung, trace, parent, t0, t1)
	if l.cells[subject] == nil {
		l.cells[subject] = map[string]*cell{}
	}
	c := l.cells[subject][rung]
	if c == nil {
		c = &cell{}
		l.cells[subject][rung] = c
	}
	c.us = append(c.us, float64(t1.Sub(t0))/float64(time.Microsecond))
	c.allocs = append(c.allocs, float64(m1.Mallocs-m0.Mallocs))
	c.bytes = append(c.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	return nil
}

// rung runs one rung on grammar i.
func (l *ladderEnv) rung(i int, rung string, buf *bytes.Buffer) error {
	g := l.specs[i]
	checkTree := func(t *llstar.Tree, err error, ref reference) error {
		if err != nil {
			return err
		}
		if digest(t) != ref.digest {
			return fmt.Errorf("tree differs from the reference")
		}
		return nil
	}
	lex := func(in string, want int) error {
		n, err := countTokens(l.gs[i], in)
		if err == nil && want >= 0 && n != want {
			err = fmt.Errorf("%d tokens, want %d", n, want)
		}
		return err
	}
	switch rung {
	case rungLex:
		return lex(l.lib[i], l.tokens[i])
	case rungParse:
		_, err := l.plain[i].Parse(g.w.Start, l.lib[i])
		return err
	case rungTree:
		t, err := l.tree[i].Parse(g.w.Start, l.lib[i])
		return checkTree(t, err, l.libRef[i])
	case rungLex2:
		return lex(l.req[i], -1)
	case rungParse2:
		_, err := l.plain[i].Parse(g.w.Start, l.req[i])
		return err
	case rungTree2:
		t, err := l.tree[i].Parse(g.w.Start, l.req[i])
		return checkTree(t, err, l.reqRef[i])
	case rungInstr:
		p := l.instr[i]
		l.flight.Reset()
		p.SetFlightRecorder(l.flight)
		t, err := p.Parse(g.w.Start, l.req[i])
		_ = p.Stats()
		p.SetFlightRecorder(nil)
		return checkTree(t, err, l.reqRef[i])
	case rungHandler:
		t := &l.targets[i]
		w := httptest.NewRecorder()
		l.single.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(t.bodies[0])))
		if err := checkReply(w.Code, "", w.Body.Bytes(), t, 0); err != nil {
			return err
		}
		l.respBytes[i] = respBytes(w.Body.Bytes())
		return nil
	case rungHTTP, rungDirect, rungProxied:
		t := &l.targets[i]
		if rung == rungDirect {
			t = &l.direct[i]
		} else if rung == rungProxied {
			t = &l.proxied[i]
			l.proxiedN++
		}
		status, by, err := post(l.client, t, 0, buf)
		if err != nil {
			return err
		}
		return checkReply(status, by, buf.Bytes(), t, 0)
	case rungAnalysis:
		gr, err := llstar.LoadWith(g.w.File, g.src, llstar.LoadOptions{})
		if err == nil && gr.AnalysisDigest() != l.digests[i] {
			err = fmt.Errorf("analysis digest differs from the server's")
		}
		return err
	case rungWarm:
		gr, err := llstar.UnmarshalAnalysis(l.artifact[i])
		if err == nil && gr.AnalysisDigest() != l.digests[i] {
			err = fmt.Errorf("decoded analysis digest differs")
		}
		return err
	}
	return fmt.Errorf("unknown rung %q", rung)
}

// respBytes is a reply's size with the elapsed_us timing written as a
// single digit, so the count does not depend on how long the parse took.
func respBytes(body []byte) int {
	key := []byte(`"elapsed_us":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return len(body)
	}
	j := i + len(key)
	for j < len(body) && body[j] == ' ' {
		j++
	}
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	return len(body) - (k - j) + 1
}

// run executes the ladder: l.rounds rounds, each running every rung on
// every grammar and two edits plus a fresh parse on every document.
func (l *ladderEnv) run(tr *tracer) (attempted int64, err error) {
	l.cells = map[string]map[string]*cell{}
	l.relexed, l.reused = map[string][]int{}, map[string][]int{}
	l.respBytes = make([]int, len(l.specs))
	proxied0 := l.proxyCount()
	var buf bytes.Buffer
	for r := 0; r < l.rounds; r++ {
		for k := range l.specs {
			i := (k + r) % len(l.specs)
			g := l.specs[i]
			trace := fmt.Sprintf("r%d/%s", r, g.name)
			parent := tr.id()
			start := time.Now()
			for j := range grammarRungs {
				rung := grammarRungs[(j+r+i)%len(grammarRungs)]
				attempted++
				if err := l.sample(g.name, rung, trace, parent, tr, func() error { return l.rung(i, rung, &buf) }); err != nil {
					return attempted, err
				}
			}
			tr.add(parent, "input", trace, 0, start, time.Now())
		}
		for k := range l.docs {
			d := l.docs[(k+r)%len(l.docs)]
			trace := fmt.Sprintf("r%d/%s", r, d.spec.name)
			parent := tr.id()
			start := time.Now()
			steps := []string{rungEdit, rungEdit, rungFull}
			if r%2 == 1 {
				steps = []string{rungFull, rungEdit, rungEdit}
			}
			for _, step := range steps {
				attempted++
				if step == rungFull {
					if err := l.fullParse(d, trace, parent, tr); err != nil {
						return attempted, err
					}
					continue
				}
				if err := l.sample(d.spec.name, step, trace, parent, tr, func() error {
					_, err := d.apply()
					return err
				}); err != nil {
					return attempted, err
				}
				st := d.s.Stats()
				l.relexed[d.spec.name] = append(l.relexed[d.spec.name], st.RelexedTokens)
				l.reused[d.spec.name] = append(l.reused[d.spec.name], st.ReusedTokens)
			}
			tr.add(parent, "input", trace, 0, start, time.Now())
		}
	}
	l.proxiedPct = pct(int(l.proxyCount()-proxied0), l.proxiedN)
	return attempted, nil
}

// fullParse times a fresh batch parse of a session's text (after a
// whole edit pair, so the original document) and checks the session
// tree against it.
func (l *ladderEnv) fullParse(d *editDoc, trace string, parent int64, tr *tracer) error {
	text := string(d.s.Text())
	if text != d.spec.text {
		return fmt.Errorf("%s: text after %d edits differs from the original", d.spec.name, d.next)
	}
	var fresh *llstar.Tree
	err := l.sample(d.spec.name, rungFull, trace, parent, tr, func() error {
		var err error
		fresh, err = d.g.NewParser(llstar.WithTree()).Parse(d.spec.rule, text)
		return err
	})
	if err == nil && digest(d.s.Tree()) != digest(fresh) {
		err = fmt.Errorf("%s: session tree after %d edits differs from a fresh parse", d.spec.name, d.next)
	}
	return err
}

// proxyCount sums the fleet's successful proxy hops.
func (l *ladderEnv) proxyCount() int64 {
	var n int64
	for _, r := range l.fleet {
		n += r.mx.Counter(obs.Label("llstar_cluster_proxy_total", "result", "ok")).Value()
	}
	return n
}

// pairedMedian is the median over rounds of rung a minus rung b on the
// same subject, and the same for bytes allocated.
func (l *ladderEnv) pairedMedian(subject, a, b string) (us, bytes float64) {
	ca, cb := l.cells[subject][a], l.cells[subject][b]
	var du, db []float64
	for r := range ca.us {
		du = append(du, ca.us[r]-cb.us[r])
		db = append(db, ca.bytes[r]-cb.bytes[r])
	}
	return median(du), median(db)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics turns the ladder's samples into the per-layer metrics.
func (l *ladderEnv) layerMetrics() map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	for i, g := range l.specs {
		c := l.cells[g.name]
		put("lexrt.lex_us."+g.name, median(c[rungLex].us), "us")
		put("lexrt.tokens."+g.name, float64(l.tokens[i]), "count")
		us, _ := l.pairedMedian(g.name, rungParse, rungLex)
		put("interp.predict_us."+g.name, us, "us")
		ev, bt, hits, misses := interpCounts(l.gs[i], g.w.Start, l.lib[i])
		put("interp.events."+g.name, float64(ev), "count")
		put("interp.backtrack_pct."+g.name, pct(bt, ev), "%")
		put("interp.memo_hit_pct."+g.name, pct(hits, hits+misses), "%")
		us, b := l.pairedMedian(g.name, rungTree, rungParse)
		put("interp.tree_us."+g.name, us, "us")
		put("interp.alloc_bytes."+g.name, b, "B")
		us, b = l.pairedMedian(g.name, rungInstr, rungTree2)
		put("obs.overhead_us."+g.name, us, "us")
		put("obs.alloc_bytes."+g.name, b, "B")
		us, _ = l.pairedMedian(g.name, rungHandler, rungInstr)
		put("server.handler_us."+g.name, us, "us")
		put("server.resp_bytes."+g.name, float64(l.respBytes[i]), "B")
		us, _ = l.pairedMedian(g.name, rungHTTP, rungHandler)
		put("server.http_us."+g.name, us, "us")
		us, _ = l.pairedMedian(g.name, rungProxied, rungDirect)
		put("cluster.proxy_us."+g.name, us, "us")
		put("core.analysis_ms."+g.name, median(c[rungAnalysis].us)/1000, "ms")
		put("serde.warm_load_ms."+g.name, median(c[rungWarm].us)/1000, "ms")
	}
	put("cluster.proxied_pct", l.proxiedPct, "%")
	for _, d := range l.docs {
		n := d.spec.name
		c := l.cells[n]
		put("stream.edit_us."+n, median(c[rungEdit].us), "us")
		put("stream.edit_alloc_bytes."+n, median(c[rungEdit].bytes), "B")
		relexed, reused := sum(l.relexed[n]), sum(l.reused[n])
		put("stream.relexed_tokens."+n, float64(relexed)/float64(len(l.relexed[n])), "count")
		put("stream.reused_token_pct."+n, pct(reused, reused+relexed), "%")
		put("stream.full_parse_us."+n, median(c[rungFull].us), "us")
	}
	return m
}

// interpCounts parses input once with WithStats and returns the
// decision events, backtracking events, memo hits and memo misses —
// the counters BENCH_*.json records.
func interpCounts(g *llstar.Grammar, rule, input string) (events, backtrack, memoHits, memoMisses int) {
	p := g.NewParser(llstar.WithStats())
	if _, err := p.Parse(rule, input); err != nil {
		return 0, 0, 0, 0
	}
	st := p.Stats()
	return st.TotalEvents(), st.BacktrackEvents(), st.MemoHits, st.MemoMisses
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

// printTable writes every ladder cell (median, IQR, allocs/op, B/op)
// and the per-layer split of a 200-line /v1/parse request.
func (l *ladderEnv) printTable(w io.Writer) {
	fmt.Fprintf(w, "\nlayer ladder: %d interleaved rounds, seed %d, library rungs %d lines, server rungs %d lines\n",
		l.rounds, l.seed, l.libLines, serveLines)
	fmt.Fprintf(w, "%-9s %-10s %12s %10s %10s %12s\n", "subject", "rung", "median_us", "iqr_us", "allocs/op", "B/op")
	subjects := make([]string, 0, len(l.cells))
	for s := range l.cells {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	for _, s := range subjects {
		rungs := make([]string, 0, len(l.cells[s]))
		for r := range l.cells[s] {
			rungs = append(rungs, r)
		}
		sort.Strings(rungs)
		for _, r := range rungs {
			c := l.cells[s][r]
			q1, q3 := quartiles(c.us)
			fmt.Fprintf(w, "%-9s %-10s %12.1f %10.1f %10.0f %12.0f\n", s, r, median(c.us), q3-q1, median(c.allocs), median(c.bytes))
		}
	}
	// A 200-line /v1/parse request on serve-mixed, layer by layer: the
	// mix sends the six grammars equally often, so the mixed request is
	// their mean.
	type layer struct {
		name string
		a, b string
	}
	layers := []layer{
		{"lex (lexrt)", rungLex2, ""},
		{"prediction (interp)", rungParse2, rungLex2},
		{"tree build (interp)", rungTree2, rungParse2},
		{"instrumentation (obs, cover, flight)", rungInstr, rungTree2},
		{"handler (server)", rungHandler, rungInstr},
		{"HTTP transport (loopback)", rungHTTP, rungHandler},
	}
	fmt.Fprintf(w, "\n200-line /v1/parse request, median us per layer\n%-38s", "layer")
	for _, g := range l.specs {
		fmt.Fprintf(w, " %9s", g.name)
	}
	fmt.Fprintf(w, " %9s %6s\n", "mixed", "share")
	var total float64
	means := make([]float64, len(layers))
	for k, ly := range layers {
		for _, g := range l.specs {
			v := median(l.cells[g.name][ly.a].us)
			if ly.b != "" {
				v, _ = l.pairedMedian(g.name, ly.a, ly.b)
			}
			means[k] += v / float64(len(l.specs))
		}
		total += means[k]
	}
	for k, ly := range layers {
		fmt.Fprintf(w, "%-38s", ly.name)
		for _, g := range l.specs {
			v := median(l.cells[g.name][ly.a].us)
			if ly.b != "" {
				v, _ = l.pairedMedian(g.name, ly.a, ly.b)
			}
			fmt.Fprintf(w, " %9.0f", v)
		}
		fmt.Fprintf(w, " %9.0f %5.1f%%\n", means[k], 100*means[k]/total)
	}
	fmt.Fprintf(w, "%-38s %*s %9.0f\n", "total (the http rung)", 10*len(l.specs)-1, "", total)
}
