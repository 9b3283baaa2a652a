package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabel(t *testing.T) {
	if got := Label("x_total"); got != "x_total" {
		t.Errorf("no labels: %q", got)
	}
	if got := Label("x_total", "a", "1", "b", "two"); got != `x_total{a="1",b="two"}` {
		t.Errorf("labels: %q", got)
	}
	f, l := splitName(`x_total{a="1"}`)
	if f != "x_total" || l != `a="1"` {
		t.Errorf("splitName: %q %q", f, l)
	}
	f, l = splitName("plain")
	if f != "plain" || l != "" {
		t.Errorf("splitName plain: %q %q", f, l)
	}
}

// TestLabelMatchesFmtQuote: Label renders values exactly as the %q
// verb did before it dropped fmt, for every class of byte a value can
// carry.
func TestLabelMatchesFmtQuote(t *testing.T) {
	for _, v := range []string{
		"", "fixed", `say "hi"`, `back\slash`, `\"`, "tab\there", "nl\n", "\x00\x07\x1b\x7f",
		"naïve", "日本語", "emoji 🙂", "\u2028", "bad\xffutf8", "\xc3", "}{,=",
	} {
		want := fmt.Sprintf("x_total{k=%q,k2=%q}", v, v+"!")
		if got := Label("x_total", "k", v, "k2", v+"!"); got != want {
			t.Errorf("Label(%q) = %s, want %s", v, got, want)
		}
	}
}

// TestHistogramMerge: merging a batch equals observing its values one
// by one, including the running max.
func TestHistogramMerge(t *testing.T) {
	vals := []int64{0, 1, 2, 3, 5, 9, 17, 64, 200, 129, 4}
	one, batch := newHistogram(nil), newHistogram(nil)
	counts := make([]int64, len(DefaultBuckets)+1)
	var sum, hi int64
	for _, v := range vals {
		one.Observe(v)
		i := 0
		for i < len(DefaultBuckets) && v > DefaultBuckets[i] {
			i++
		}
		counts[i]++
		sum += v
		hi = max(hi, v)
	}
	batch.Observe(7)
	one.Observe(7)
	batch.Merge(counts, sum, int64(len(vals)), hi)
	if one.Count() != batch.Count() || one.Sum() != batch.Sum() || one.Max() != batch.Max() {
		t.Fatalf("count/sum/max: observed %d/%d/%d, merged %d/%d/%d",
			one.Count(), one.Sum(), one.Max(), batch.Count(), batch.Sum(), batch.Max())
	}
	for i := range one.counts {
		if one.counts[i].Load() != batch.counts[i].Load() {
			t.Errorf("bucket %d: observed %d, merged %d", i, one.counts[i].Load(), batch.counts[i].Load())
		}
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	m := NewMetrics()
	m.Counter("c_total").Inc()
	m.Counter("c_total").Add(4)
	if v := m.Counter("c_total").Value(); v != 5 {
		t.Errorf("counter = %d", v)
	}
	m.Gauge("g").Set(7)
	m.Gauge("g").Add(-2)
	if v := m.Gauge("g").Value(); v != 5 {
		t.Errorf("gauge = %d", v)
	}
	h := m.Histogram("h", 1, 2, 4)
	for _, v := range []int64{0, 1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 111 || h.Max() != 100 {
		t.Errorf("hist count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Same name returns the same instrument; bounds apply on first use.
	if m.Histogram("h", 99).Count() != 6 {
		t.Error("histogram identity")
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Counter(Label("llstar_predict_events_total", "throttle", "fixed")).Add(3)
	m.Counter(Label("llstar_predict_events_total", "throttle", "backtrack")).Inc()
	m.Gauge("llstar_memo_entries").Set(12)
	h := m.Histogram("llstar_lookahead_depth", 1, 2)
	h.Observe(1)
	h.Observe(1)
	h.Observe(9)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE llstar_predict_events_total counter",
		`llstar_predict_events_total{throttle="fixed"} 3`,
		`llstar_predict_events_total{throttle="backtrack"} 1`,
		"# TYPE llstar_memo_entries gauge",
		"llstar_memo_entries 12",
		"# TYPE llstar_lookahead_depth histogram",
		`llstar_lookahead_depth_bucket{le="1"} 2`,
		`llstar_lookahead_depth_bucket{le="2"} 2`,
		`llstar_lookahead_depth_bucket{le="+Inf"} 3`,
		"llstar_lookahead_depth_sum 11",
		"llstar_lookahead_depth_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// One TYPE line per family even with several label sets.
	if n := strings.Count(out, "# TYPE llstar_predict_events_total"); n != 1 {
		t.Errorf("TYPE lines for family = %d", n)
	}
}

func TestWritePrometheusLabeledHistogram(t *testing.T) {
	m := NewMetrics()
	m.Histogram(Label("llstar_lookahead_depth", "decision", "3"), 1).Observe(2)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`llstar_lookahead_depth_bucket{decision="3",le="+Inf"} 1`,
		`llstar_lookahead_depth_sum{decision="3"} 2`,
		`llstar_lookahead_depth_count{decision="3"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	m := NewMetrics()
	m.Counter("a_total").Add(2)
	m.Gauge("b").Set(-1)
	m.Histogram("h", 1, 2).Observe(2)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if out["a_total"] != float64(2) || out["b"] != float64(-1) {
		t.Errorf("scalars: %v", out)
	}
	h := out["h"].(map[string]any)
	if h["count"] != float64(1) || h["sum"] != float64(2) || h["max"] != float64(2) {
		t.Errorf("hist: %v", h)
	}
	if h["buckets"].(map[string]any)["2"] != float64(1) {
		t.Errorf("buckets: %v", h)
	}
}

// populateMixed fills a registry with interleaved families and label
// sets in a registration order chosen to disagree with sorted order.
func populateMixed(m *Metrics) {
	m.Gauge("z_gauge").Set(1)
	m.Counter(Label("b_total", "k", "2")).Inc()
	m.Counter("llstar_stream_events_total").Add(12)
	m.Histogram("m_hist", 1, 4).Observe(3)
	m.Counter(Label("b_total", "k", "1")).Add(7)
	m.Counter("a_total").Inc()
	m.Counter("llstar_stream_bytes_total").Add(4096)
	m.Gauge("c_gauge").Set(-3)
	m.Histogram(Label("m_hist", "d", "9"), 2).Observe(1)
	m.Counter("llstar_stream_sessions_total").Inc()
}

func TestExportersDeterministic(t *testing.T) {
	// Two registries populated in different orders, plus repeated
	// exports of the same registry, must all render byte-identically.
	m1 := NewMetrics()
	populateMixed(m1)
	m2 := NewMetrics()
	m2.Counter("llstar_stream_sessions_total").Inc()
	m2.Counter("a_total").Inc()
	m2.Histogram(Label("m_hist", "d", "9"), 2).Observe(1)
	m2.Gauge("c_gauge").Set(-3)
	m2.Counter("llstar_stream_bytes_total").Add(4096)
	m2.Counter(Label("b_total", "k", "1")).Add(7)
	m2.Counter(Label("b_total", "k", "2")).Inc()
	m2.Gauge("z_gauge").Set(1)
	m2.Histogram("m_hist", 1, 4).Observe(3)
	m2.Counter("llstar_stream_events_total").Add(12)

	render := func(m *Metrics, f func(*Metrics, *bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := f(m, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	prom := func(m *Metrics, b *bytes.Buffer) error { return m.WritePrometheus(b) }
	js := func(m *Metrics, b *bytes.Buffer) error { return m.WriteJSON(b) }

	for name, f := range map[string]func(*Metrics, *bytes.Buffer) error{"prometheus": prom, "json": js} {
		a, b := render(m1, f), render(m2, f)
		if a != b {
			t.Errorf("%s export depends on registration order:\n--- m1 ---\n%s--- m2 ---\n%s", name, a, b)
		}
		if again := render(m1, f); again != a {
			t.Errorf("%s export not stable across calls", name)
		}
	}

	// Series must appear in sorted family order.
	out := render(m1, prom)
	last := ""
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		family, _ := splitName(strings.SplitN(line, " ", 2)[0])
		family = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if family < last {
			t.Errorf("prometheus series out of order: %q after %q", family, last)
		}
		last = family
	}
}

func TestWriteJSONOrderedBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("h", 1, 2, 16)
	for _, v := range []int64{1, 2, 9, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Buckets render in ascending bound order with +Inf last, not
	// lexicographic map order.
	i1, i16, iInf := strings.Index(out, `"1"`), strings.Index(out, `"16"`), strings.Index(out, `"+Inf"`)
	if i1 < 0 || i16 < 0 || iInf < 0 || !(i1 < i16 && i16 < iInf) {
		t.Errorf("bucket order wrong in %s", out)
	}
}

func TestMetricsConcurrency(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("c_total").Inc()
				m.Histogram("h").Observe(int64(j % 10))
				m.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if v := m.Counter("c_total").Value(); v != 8000 {
		t.Errorf("counter = %d", v)
	}
	if n := m.Histogram("h").Count(); n != 8000 {
		t.Errorf("hist count = %d", n)
	}
}
