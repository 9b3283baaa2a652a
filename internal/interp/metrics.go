package interp

import (
	"strconv"

	"llstar/internal/core"
	"llstar/internal/obs"
)

// runMetrics is the parse-local side of Options.Metrics. The
// instrumentation sites bump its plain integers, so the prediction loop
// does no label formatting, registry lookup or atomic add; flushRun
// merges it into the shared registry once per parse.
type runMetrics struct {
	depth []depthHist // lookahead depth per decision
	spec  depthHist   // tokens consumed per speculation
	n     eventCounts
	h     metricHandles
}

// eventCounts are a parse's runtime event counters. Arrays are indexed
// by the label value they will carry: result fail/match for
// speculations and synpreds, true/false/error for sempreds.
type eventCounts struct {
	backtracks, resyncs, syntaxErrs int64
	specs, synpreds                 [2]int64
	sempreds                        [3]int64
}

// metricHandles are the registry instruments runMetrics flushes into,
// each resolved on its first non-empty flush so a scrape shows exactly
// the series a parse has touched.
type metricHandles struct {
	predict                          [3]*obs.Counter // by core.Class
	depth, specDepth                 *obs.Histogram
	decDepth                         []*obs.Histogram
	backtracks, resyncs, syntaxErrs  *obs.Counter
	specs, synpreds                  [2]*obs.Counter
	sempreds                         [3]*obs.Counter
	parses, parseErrs, tokens        *obs.Counter
	memoHits, memoMisses, memoStores *obs.Counter
	memoEntries                      *obs.Gauge
}

var (
	specResults    = [2]string{"fail", "match"}
	sempredResults = [3]string{"true", "false", "error"}
)

// depthHist is a plain histogram over obs.DefaultBuckets (the bounds of
// every runtime histogram), with a last slot for +Inf.
type depthHist struct {
	counts      [9]int64
	sum, n, max int64
}

func (h *depthHist) observe(v int) {
	i := 0
	for i < len(obs.DefaultBuckets) && int64(v) > obs.DefaultBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += int64(v)
	h.n++
	h.max = max(h.max, int64(v))
}

// flushTo merges h into dst and clears it.
func (h *depthHist) flushTo(dst *obs.Histogram) {
	dst.Merge(h.counts[:], h.sum, h.n, h.max)
	*h = depthHist{}
}

// add accumulates o into h.
func (h *depthHist) add(o *depthHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.n += o.n
	h.max = max(h.max, o.max)
}

// counter returns *dst, resolving it from mx as the labeled name on
// first use; the name is built only then.
func counter(mx *obs.Metrics, dst **obs.Counter, name string, kv ...string) *obs.Counter {
	if *dst == nil {
		*dst = mx.Counter(obs.Label(name, kv...))
	}
	return *dst
}

// histogram returns *dst, resolving it from mx on first use.
func histogram(mx *obs.Metrics, dst **obs.Histogram, name string) *obs.Histogram {
	if *dst == nil {
		*dst = mx.Histogram(name)
	}
	return *dst
}

// flushRun merges the parse-local record into the registry and resets
// it for the next parse.
func (p *Parser) flushRun() {
	r, mx := p.run, p.mx
	if r == nil {
		return
	}
	h := &r.h
	add := func(dst **obs.Counter, n int64, name string, kv ...string) {
		if n > 0 {
			counter(mx, dst, name, kv...).Add(n)
		}
	}
	// Empty histograms and zero counts touch nothing, so no series
	// appears before its first event.
	var byClass [3]int64
	var all depthHist
	for d := range r.depth {
		dh := &r.depth[d]
		if dh.n == 0 {
			continue
		}
		byClass[min(int(p.class[d]), len(byClass)-1)] += dh.n
		all.add(dh)
		if h.decDepth[d] == nil {
			h.decDepth[d] = mx.Histogram(obs.Label("llstar_lookahead_depth", "decision", strconv.Itoa(d)))
		}
		dh.flushTo(h.decDepth[d])
	}
	for c, n := range byClass {
		add(&h.predict[c], n, "llstar_predict_events_total", "throttle", core.Class(c).String())
	}
	if all.n > 0 {
		all.flushTo(histogram(mx, &h.depth, "llstar_lookahead_depth"))
	}
	if r.spec.n > 0 {
		r.spec.flushTo(histogram(mx, &h.specDepth, "llstar_speculation_depth"))
	}
	n := &r.n
	for i, res := range specResults {
		add(&h.specs[i], n.specs[i], "llstar_speculations_total", "result", res)
		add(&h.synpreds[i], n.synpreds[i], "llstar_synpred_evals_total", "result", res)
	}
	for i, res := range sempredResults {
		add(&h.sempreds[i], n.sempreds[i], "llstar_sempred_evals_total", "result", res)
	}
	add(&h.backtracks, n.backtracks, "llstar_predict_backtrack_total")
	add(&h.resyncs, n.resyncs, "llstar_error_resyncs_total")
	add(&h.syntaxErrs, n.syntaxErrs, "llstar_syntax_errors_total")
	*n = eventCounts{}
}

// flushParse records the once-per-parse series of a ParseTokens call.
// These add unconditionally (zero included), creating their series on
// the first parse.
func (p *Parser) flushParse(tokens int, failed bool) {
	mx, h := p.mx, &p.run.h
	counter(mx, &h.parses, "llstar_parses_total").Inc()
	if failed {
		counter(mx, &h.parseErrs, "llstar_parse_errors_total").Inc()
	}
	counter(mx, &h.tokens, "llstar_tokens_total").Add(int64(tokens))
	if p.memo != nil {
		counter(mx, &h.memoHits, "llstar_memo_hits_total").Add(int64(p.memo.Hits()))
		counter(mx, &h.memoMisses, "llstar_memo_misses_total").Add(int64(p.memo.Misses()))
		counter(mx, &h.memoStores, "llstar_memo_stores_total").Add(int64(p.memo.Stores()))
		if h.memoEntries == nil {
			h.memoEntries = mx.Gauge("llstar_memo_entries")
		}
		h.memoEntries.Set(int64(p.memo.Entries()))
	}
}

// speculated records one speculation: its result and the tokens it
// consumed before rewinding.
func (r *runMetrics) speculated(consumed int, ok bool) {
	r.n.specs[b2i(ok)]++
	r.spec.observe(consumed)
}

// b2i indexes a fail/match pair.
func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}
