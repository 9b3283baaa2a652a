package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"llstar/internal/bench"
)

// countMetric reports whether a per-layer metric is a deterministic
// count rather than a timing or an allocation figure.
func countMetric(name string) bool {
	for _, pre := range []string{"lexrt.tokens.", "interp.events.", "interp.backtrack_pct.",
		"interp.memo_hit_pct.", "server.resp_bytes.", "stream.relexed_tokens.",
		"stream.reused_token_pct.", "cluster.proxied_pct"} {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

func runLadder(t *testing.T, seed int64, libLines int) map[string]metric {
	t.Helper()
	specs, err := grammarSpecs()
	if err != nil {
		t.Fatal(err)
	}
	l := newLadder(specs, seed, t.TempDir())
	l.libLines, l.rounds = libLines, 1
	defer l.close()
	if err := l.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.run(nil); err != nil {
		t.Fatal(err)
	}
	return l.layerMetrics()
}

// TestLadderCounts runs the ladder twice at seed 1 with 300-line
// library inputs: it must report exactly the per-layer metrics
// BENCHMARK.json lists, every count must repeat exactly, and the interp
// counts must equal those BENCH_10.json recorded for the same seed and
// size.
func TestLadderCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three servers twice")
	}
	a, b := runLadder(t, 1, 300), runLadder(t, 1, 300)
	cfg := readBenchmarkJSON(t)
	if len(a) != len(cfg.PerLayer) {
		t.Errorf("ladder reports %d metrics, BENCHMARK.json lists %d", len(a), len(cfg.PerLayer))
	}
	for _, m := range cfg.PerLayer {
		if got, ok := a[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): reported as %+v", m.Name, m.Unit, got)
		}
	}
	for name, m := range a {
		if countMetric(name) && m != b[name] {
			t.Errorf("%s: %v then %v", name, m.Value, b[name].Value)
		}
	}

	data, err := os.ReadFile("../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	var rs bench.ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Seed != 1 || rs.Lines != 300 {
		t.Fatalf("BENCH_10.json is seed %d, %d lines; want seed 1, 300 lines", rs.Seed, rs.Lines)
	}
	specs, _ := grammarSpecs()
	for _, g := range specs {
		var want *bench.WorkloadResult
		for i := range rs.Workloads {
			if rs.Workloads[i].Name == g.w.Name {
				want = &rs.Workloads[i]
			}
		}
		if want == nil {
			t.Fatalf("%s missing from BENCH_10.json", g.w.Name)
		}
		checks := []struct {
			metric string
			want   float64
		}{
			{"interp.events", float64(want.Events)},
			{"interp.backtrack_pct", pct(want.BacktrackEvents, want.Events)},
			{"interp.memo_hit_pct", pct(want.MemoHits, want.MemoHits+want.MemoMisses)},
		}
		for _, c := range checks {
			if got := a[c.metric+"."+g.name].Value; math.Abs(got-c.want) > 1e-9 {
				t.Errorf("%s.%s = %v, BENCH_10.json gives %v", c.metric, g.name, got, c.want)
			}
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkJSON
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and end-to-end
// metrics in step with what the benchmark runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	cfg := readBenchmarkJSON(t)
	var wls []string
	for _, w := range cfg.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, benchmark runs %v", wls, workloadNames)
	}
	e2e := endToEnd(&loopStats{}, 1).Metrics
	if len(cfg.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, %d printed", len(cfg.EndToEnd), len(e2e))
	}
	for _, m := range cfg.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
}

// TestEditReplay applies the start of each document's replay: every
// edit must succeed, the text must return to the original after every
// pair, and the session tree must then equal a fresh parse.
func TestEditReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("parses 2000-line documents")
	}
	specs, err := grammarSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		for i, d := range docSpecs(specs, seed) {
			g, s, err := openDoc(d)
			if err != nil {
				t.Fatal(err)
			}
			edits, err := genEdits(g, d.text, seed+int64(i), 120)
			if err != nil {
				t.Fatal(err)
			}
			doc := &editDoc{spec: d, g: g, s: s, edits: edits}
			for range edits {
				if _, err := doc.apply(); err != nil {
					t.Fatal(err)
				}
			}
			if err := doc.checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}
	}
}

func TestCheckReply(t *testing.T) {
	tg := &target{grammar: "g", owner: "b:1", refs: []reference{{tree: "(s a)"}}}
	ok := []byte(`{"ok":true,"text":"(s a)","elapsed_us": 12}`)
	if err := checkReply(http.StatusOK, "b:1", ok, tg, 0); err != nil {
		t.Errorf("good reply rejected: %v", err)
	}
	bad := map[string]struct {
		status int
		by     string
		body   string
	}{
		"status":    {http.StatusTooManyRequests, "b:1", `{"ok":true,"text":"(s a)"}`},
		"not owner": {http.StatusOK, "a:1", `{"ok":true,"text":"(s a)"}`},
		"ok false":  {http.StatusOK, "b:1", `{"ok":false,"text":"(s a)"}`},
		"tree":      {http.StatusOK, "b:1", `{"ok":true,"text":"(s b)"}`},
	}
	for name, c := range bad {
		if checkReply(c.status, c.by, []byte(c.body), tg, 0) == nil {
			t.Errorf("%s: bad reply accepted", name)
		}
	}
	if n := respBytes(ok); n != len(ok)-1 {
		t.Errorf("respBytes = %d, want %d", n, len(ok)-1)
	}
}

func TestChunksOf(t *testing.T) {
	ms := time.Millisecond
	done := [][]completion{{{10 * ms, 1}, {30 * ms, 1}}, {{20 * ms, 2}, {40 * ms, 2}, {90 * ms, 5}}}
	got := chunksOf(done, 50*ms, 2)
	want := []chunk{{ops: 2, lines: 3, busy: 20 * ms}, {ops: 2, lines: 3, busy: 20 * ms}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("chunksOf = %+v, want %+v", got, want)
	}
}
