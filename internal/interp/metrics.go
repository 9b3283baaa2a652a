package interp

import (
	"strconv"

	"llstar/internal/core"
	"llstar/internal/cover"
	"llstar/internal/obs"
	"llstar/internal/runtime"
)

// metricHandles are the registry instruments endParse flushes the
// record into, each resolved on its first non-empty flush so a scrape
// shows exactly the series a parse has touched, and the prediction loop
// does no label formatting, registry lookup or atomic add.
type metricHandles struct {
	mx                               *obs.Metrics
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

// counter returns *dst, resolving it as the labeled name on first use;
// the name is built only then.
func (h *metricHandles) counter(dst **obs.Counter, name string, kv ...string) *obs.Counter {
	if *dst == nil {
		*dst = h.mx.Counter(obs.Label(name, kv...))
	}
	return *dst
}

// histogram returns *dst, resolving it on first use.
func (h *metricHandles) histogram(dst **obs.Histogram, name string) *obs.Histogram {
	if *dst == nil {
		*dst = h.mx.Histogram(name)
	}
	return *dst
}

// memoCounts is a whole parse's memo-table activity.
type memoCounts struct{ entries, hits, misses, stores int64 }

// endParse reads the record three ways — into ParseStats, the runtime
// metrics and the coverage profile — and clears it for the next parse.
// ParseTokens and ParseFragment defer it, so it runs on every exit path.
func (p *Parser) endParse() {
	r := p.rec
	if r == nil {
		return
	}
	// Memo activity is reported for whole parses only, and the record's
	// per-rule lookups are the table's: parseRule is its only reader.
	var memo *memoCounts
	if r.Parses > 0 && p.memo != nil {
		memo = &memoCounts{entries: int64(p.memo.Entries()), stores: int64(p.memo.Stores())}
		for _, rc := range r.Rules {
			memo.hits += rc.MemoHits
			memo.misses += rc.MemoMisses
		}
	}
	if p.stats != nil {
		p.fillStats(memo)
	}
	if p.mx != nil {
		p.flushMetrics(memo)
	}
	r.Flush()
}

// fillStats copies the record into ParseStats.
func (p *Parser) fillStats(memo *memoCounts) {
	r, ps := p.rec, p.stats
	for i := range ps.Decisions {
		d, dk := &r.Decisions[i], &r.K[i]
		ps.Decisions[i] = runtime.DecisionStats{
			Events:          int(d.Predictions),
			SumK:            dk.SumK,
			MaxK:            d.MaxK,
			BacktrackEvents: int(d.Strategy[cover.StratBacktrack]),
			SumBacktrackK:   dk.SumBacktrackK,
			CanBacktrack:    p.class[i] == core.ClassBacktrack,
		}
	}
	*ps = runtime.ParseStats{Decisions: ps.Decisions}
	if memo != nil {
		ps.MemoEntries, ps.MemoHits = int(memo.entries), int(memo.hits)
		ps.MemoMisses, ps.MemoStores = int(memo.misses), int(memo.stores)
	}
}

// flushMetrics merges the record into the registry. Empty histograms
// and zero counts touch nothing, so no series appears before its first
// event; the once-per-parse series of a whole parse add unconditionally
// (zero included), creating their series on the first parse.
func (p *Parser) flushMetrics(memo *memoCounts) {
	r, h := p.rec, p.mx
	add := func(dst **obs.Counter, n int64, name string, kv ...string) {
		if n > 0 {
			h.counter(dst, name, kv...).Add(n)
		}
	}
	if r.Parses > 0 {
		h.counter(&h.parses, "llstar_parses_total").Add(r.Parses)
		add(&h.parseErrs, r.ParseErrors, "llstar_parse_errors_total")
		h.counter(&h.tokens, "llstar_tokens_total").Add(r.Tokens)
	}
	if memo != nil {
		h.counter(&h.memoHits, "llstar_memo_hits_total").Add(memo.hits)
		h.counter(&h.memoMisses, "llstar_memo_misses_total").Add(memo.misses)
		h.counter(&h.memoStores, "llstar_memo_stores_total").Add(memo.stores)
		if h.memoEntries == nil {
			h.memoEntries = h.mx.Gauge("llstar_memo_entries")
		}
		h.memoEntries.Set(memo.entries)
	}

	var byClass [3]int64
	var depth cover.Buckets
	var sumK, events, maxK, backtracks, resyncs, specTokens int64
	var specs [2]int64
	for d := range r.Decisions {
		dc, dk := &r.Decisions[d], &r.K[d]
		backtracks += dc.Strategy[cover.StratBacktrack]
		resyncs += dc.Resyncs
		specs[0] += dc.WastedSpecEvents
		specs[1] += dc.SpecEvents - dc.WastedSpecEvents
		specTokens += dc.SpecTokens
		if dc.Predictions == 0 {
			continue
		}
		byClass[min(int(p.class[d]), len(byClass)-1)] += dc.Predictions
		for i, c := range dk.Depth {
			depth[i] += c
		}
		sumK += dk.SumK
		events += dc.Predictions
		maxK = max(maxK, int64(dc.MaxK))
		if h.decDepth[d] == nil {
			h.decDepth[d] = h.mx.Histogram(obs.Label("llstar_lookahead_depth", "decision", strconv.Itoa(d)))
		}
		h.decDepth[d].Merge(dk.Depth[:], dk.SumK, dc.Predictions, int64(dc.MaxK))
	}
	for c, n := range byClass {
		add(&h.predict[c], n, "llstar_predict_events_total", "throttle", core.Class(c).String())
	}
	if events > 0 {
		h.histogram(&h.depth, "llstar_lookahead_depth").Merge(depth[:], sumK, events, maxK)
	}
	if n := specs[0] + specs[1]; n > 0 {
		h.histogram(&h.specDepth, "llstar_speculation_depth").Merge(r.SpecDepth[:], specTokens, n, r.SpecMax)
	}
	for i, res := range specResults {
		add(&h.specs[i], specs[i], "llstar_speculations_total", "result", res)
		add(&h.synpreds[i], r.Synpreds[i], "llstar_synpred_evals_total", "result", res)
	}
	for i, res := range sempredResults {
		add(&h.sempreds[i], r.Sempreds[i], "llstar_sempred_evals_total", "result", res)
	}
	add(&h.backtracks, backtracks, "llstar_predict_backtrack_total")
	add(&h.resyncs, resyncs, "llstar_error_resyncs_total")
	add(&h.syntaxErrs, r.SyntaxErrors, "llstar_syntax_errors_total")
}
