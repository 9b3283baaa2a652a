// Package cover is the decision-level coverage and hotspot profiler:
// cheap runtime counters, accumulated per rule / per decision / per
// alternative while parsing, that answer the Section 6 questions for a
// user's own grammar and corpus — how often does each decision resolve
// with LL(1), LL(k), a cyclic DFA, or backtracking; which rules, alts,
// and DFA states does the corpus never exercise; and which decision
// burns the speculation budget.
//
// Its Recorder is also the interpreter's one per-parse record: with
// stats, metrics or coverage on, every instrumentation site writes its
// fact there once, behind a single nil check. At parse end the
// interpreter reads the record three ways — it fills ParseStats,
// flushes the runtime metrics, and merges it into the shared Profile —
// so pooled parsers and Grammar.ParseConcurrent accumulate into one
// mergeable aggregate without hot-path locking.
package cover

import (
	"sync"

	"llstar/internal/core"
	"llstar/internal/obs"
)

// Strategy classifies how one prediction event resolved at runtime.
type Strategy int

// Prediction strategies, in increasing order of cost (the paper's
// graceful throttle-up: LL(1) → LL(k) → cyclic DFA → backtrack).
const (
	// StratLL1: the decision resolved on a single token of lookahead.
	StratLL1 Strategy = iota
	// StratLLk: an acyclic DFA resolved on a fixed k > 1 tokens.
	StratLLk
	// StratCyclic: a cyclic DFA scanned arbitrarily far ahead.
	StratCyclic
	// StratBacktrack: lookahead alone could not decide; the parser
	// speculated (syntactic predicate or PEG-mode backtracking).
	StratBacktrack
	// NumStrategies sizes per-decision strategy arrays.
	NumStrategies
)

// String returns the report label for a strategy.
func (s Strategy) String() string {
	switch s {
	case StratLL1:
		return "LL(1)"
	case StratLLk:
		return "LL(k)"
	case StratCyclic:
		return "cyclic"
	default:
		return "backtrack"
	}
}

// DecisionMeta is the static identity of one parsing decision,
// captured at profile creation so reports can attribute counters to
// stable decision IDs, rules, and DFA shapes.
type DecisionMeta struct {
	ID        int    `json:"id"`
	Rule      string `json:"rule"`
	Desc      string `json:"desc"`
	Class     string `json:"class"` // "fixed", "cyclic", "backtrack"
	NAlts     int    `json:"nalts"`
	DFAStates int    `json:"dfa_states"`
}

// Meta is the static shape of a grammar's profile: decision and rule
// identities, fixed at analysis time. Decision IDs and DFA state IDs
// are stable across loads of the same grammar source (analysis is
// deterministic), so profiles from different processes are comparable.
type Meta struct {
	Grammar   string         `json:"grammar"`
	Decisions []DecisionMeta `json:"decisions"`
	Rules     []string       `json:"rules"` // parser rules, by rule index
}

// NewMeta captures the profile shape of an analyzed grammar: one slot
// per parsing decision (with its alternative count and DFA size) and
// per parser rule.
func NewMeta(res *core.Result) Meta {
	meta := Meta{Grammar: res.Grammar.Name}
	for _, r := range res.Grammar.Rules {
		meta.Rules = append(meta.Rules, r.Name)
	}
	for _, di := range res.Decisions {
		meta.Decisions = append(meta.Decisions, DecisionMeta{
			ID:        di.Decision.ID,
			Rule:      di.Decision.Rule.Name,
			Desc:      di.Decision.Desc,
			Class:     di.Class.String(),
			NAlts:     di.Decision.NAlts,
			DFAStates: di.DFA.NumStates(),
		})
	}
	return meta
}

// DecisionCoverage accumulates runtime counters for one decision.
type DecisionCoverage struct {
	// Predictions counts prediction events at this decision, including
	// nested events inside speculation. The per-strategy split sums to
	// Predictions.
	Predictions int64 `json:"predictions"`
	// Strategy splits Predictions by how each event resolved.
	Strategy [NumStrategies]int64 `json:"strategy"`
	// Errors counts prediction events that failed (no viable alternative).
	Errors int64 `json:"errors"`
	// Alts counts how often each alternative was chosen (index alt-1).
	Alts []int64 `json:"alts"`
	// MaxK is the deepest lookahead of any event here.
	MaxK int `json:"max_k"`
	// StatesVisited marks the DFA states this corpus ever drove the
	// simulation through (index = DFA state ID).
	StatesVisited []bool `json:"states_visited"`
	// EdgesTaken counts DFA transitions taken while simulating here.
	EdgesTaken int64 `json:"edges_taken"`
	// SpecEvents / SpecTokens count speculative sub-parses launched at
	// this decision and the tokens they consumed before rewinding.
	SpecEvents int64 `json:"spec_events"`
	SpecTokens int64 `json:"spec_tokens"`
	// WastedSpecEvents / WastedSpecTokens are the failed subset of the
	// above: speculation whose work was thrown away entirely.
	WastedSpecEvents int64 `json:"wasted_spec_events"`
	WastedSpecTokens int64 `json:"wasted_spec_tokens"`
	// MaxSpecDepth is the deepest speculation nesting reached here.
	MaxSpecDepth int `json:"max_spec_depth"`
	// Resyncs / ResyncTokens count panic-mode recoveries at this
	// decision and the tokens they deleted.
	Resyncs      int64 `json:"resyncs"`
	ResyncTokens int64 `json:"resync_tokens"`
}

// add accumulates o into d (element-wise; visited states are OR-ed).
func (d *DecisionCoverage) add(o *DecisionCoverage) {
	d.Predictions += o.Predictions
	for i := range d.Strategy {
		d.Strategy[i] += o.Strategy[i]
	}
	d.Errors += o.Errors
	for i := range d.Alts {
		if i < len(o.Alts) {
			d.Alts[i] += o.Alts[i]
		}
	}
	if o.MaxK > d.MaxK {
		d.MaxK = o.MaxK
	}
	for i := range d.StatesVisited {
		if i < len(o.StatesVisited) && o.StatesVisited[i] {
			d.StatesVisited[i] = true
		}
	}
	d.EdgesTaken += o.EdgesTaken
	d.SpecEvents += o.SpecEvents
	d.SpecTokens += o.SpecTokens
	d.WastedSpecEvents += o.WastedSpecEvents
	d.WastedSpecTokens += o.WastedSpecTokens
	if o.MaxSpecDepth > d.MaxSpecDepth {
		d.MaxSpecDepth = o.MaxSpecDepth
	}
	d.Resyncs += o.Resyncs
	d.ResyncTokens += o.ResyncTokens
}

// StatesCovered counts distinct DFA states visited.
func (d *DecisionCoverage) StatesCovered() int {
	n := 0
	for _, v := range d.StatesVisited {
		if v {
			n++
		}
	}
	return n
}

// AltsCovered counts alternatives chosen at least once.
func (d *DecisionCoverage) AltsCovered() int {
	n := 0
	for _, c := range d.Alts {
		if c > 0 {
			n++
		}
	}
	return n
}

// RuleCoverage accumulates runtime counters for one parser rule.
type RuleCoverage struct {
	// Invocations counts rule invocations, speculative ones included.
	Invocations int64 `json:"invocations"`
	// MemoHits / MemoMisses count packrat-cache activity for
	// speculative invocations of this rule.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

func (r *RuleCoverage) add(o *RuleCoverage) {
	r.Invocations += o.Invocations
	r.MemoHits += o.MemoHits
	r.MemoMisses += o.MemoMisses
}

// counters is the mutable half shared by Recorder (unsynchronized,
// per-parse) and Profile (mutex-guarded aggregate).
type counters struct {
	Parses      int64
	ParseErrors int64
	Tokens      int64
	Decisions   []DecisionCoverage
	Rules       []RuleCoverage
}

func newCounters(meta *Meta) counters {
	c := counters{
		Decisions: make([]DecisionCoverage, len(meta.Decisions)),
		Rules:     make([]RuleCoverage, len(meta.Rules)),
	}
	for i := range c.Decisions {
		c.Decisions[i].Alts = make([]int64, meta.Decisions[i].NAlts)
		c.Decisions[i].StatesVisited = make([]bool, meta.Decisions[i].DFAStates)
	}
	return c
}

func (c *counters) add(o *counters) {
	c.Parses += o.Parses
	c.ParseErrors += o.ParseErrors
	c.Tokens += o.Tokens
	for i := range c.Decisions {
		if i < len(o.Decisions) {
			c.Decisions[i].add(&o.Decisions[i])
		}
	}
	for i := range c.Rules {
		if i < len(o.Rules) {
			c.Rules[i].add(&o.Rules[i])
		}
	}
}

func (c *counters) reset() {
	c.Parses, c.ParseErrors, c.Tokens = 0, 0, 0
	for i := range c.Decisions {
		d := &c.Decisions[i]
		alts, states := d.Alts, d.StatesVisited
		for j := range alts {
			alts[j] = 0
		}
		for j := range states {
			states[j] = false
		}
		*d = DecisionCoverage{Alts: alts, StatesVisited: states}
	}
	for i := range c.Rules {
		c.Rules[i] = RuleCoverage{}
	}
}

// Profile is a mergeable aggregate of coverage counters for one
// grammar. A Profile is safe for concurrent use: any number of parsers
// (pooled or private) may flush recorders into it while other
// goroutines Snapshot it — the serving path for a live
// /debug/coverage endpoint.
type Profile struct {
	meta *Meta

	mu sync.Mutex
	c  counters
}

// NewProfile returns an empty profile over the given static shape.
// Callers normally use the facade's Grammar.NewCoverage, which fills
// Meta from the analysis result.
func NewProfile(meta Meta) *Profile {
	m := meta
	return &Profile{meta: &m, c: newCounters(&m)}
}

// Meta returns the profile's static shape.
func (p *Profile) Meta() *Meta { return p.meta }

// Merge adds a snapshot's counters into p. Both must come from the
// same grammar (the same Meta shape); mismatched tails are ignored.
func (p *Profile) Merge(s *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := counters{
		Parses:      s.Parses,
		ParseErrors: s.ParseErrors,
		Tokens:      s.Tokens,
		Decisions:   s.Decisions,
		Rules:       s.Rules,
	}
	p.c.add(&c)
}

// Reset clears every accumulated counter, keeping the shape.
func (p *Profile) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.c.reset()
}

// Snapshot is an immutable copy of a profile's counters, safe to read,
// report, and serialize while parsing continues.
type Snapshot struct {
	Meta        *Meta              `json:"meta"`
	Parses      int64              `json:"parses"`
	ParseErrors int64              `json:"parse_errors"`
	Tokens      int64              `json:"tokens"`
	Decisions   []DecisionCoverage `json:"decisions"`
	Rules       []RuleCoverage     `json:"rules"`
}

// Snapshot deep-copies the current counters.
func (p *Profile) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Meta:        p.meta,
		Parses:      p.c.Parses,
		ParseErrors: p.c.ParseErrors,
		Tokens:      p.c.Tokens,
		Decisions:   make([]DecisionCoverage, len(p.c.Decisions)),
		Rules:       make([]RuleCoverage, len(p.c.Rules)),
	}
	copy(s.Rules, p.c.Rules)
	for i := range p.c.Decisions {
		d := p.c.Decisions[i]
		d.Alts = append([]int64(nil), d.Alts...)
		d.StatesVisited = append([]bool(nil), d.StatesVisited...)
		s.Decisions[i] = d
	}
	return s
}

// Buckets counts depths over obs.DefaultBuckets, the bounds of every
// runtime histogram, with a last slot for +Inf.
type Buckets [9]int64

func (b *Buckets) observe(v int) {
	i := 0
	for i < len(obs.DefaultBuckets) && int64(v) > obs.DefaultBuckets[i] {
		i++
	}
	b[i]++
}

// DecisionK is what only stats and metrics read about one decision's
// lookahead: the depth sums (over all events and over backtracking
// ones) and the depth distribution.
type DecisionK struct {
	SumK, SumBacktrackK int64
	Depth               Buckets
}

// Recorder is one parser's per-parse record. It holds the coverage
// counters plus what only stats and metrics need: per-decision
// lookahead sums and depth buckets, and per-parse speculation depths,
// predicate outcomes and syntax errors. It is NOT safe for concurrent
// use — exactly like the parser that owns it. All methods are cheap
// field updates; the interpreter gates every call on a single nil
// check.
type Recorder struct {
	counters
	K []DecisionK // by decision ID
	// SpecDepth buckets the tokens each speculation consumed; SpecMax
	// is the most any consumed.
	SpecDepth Buckets
	SpecMax   int64
	// Synpreds counts syntactic-predicate speculations by result
	// (fail, match); Sempreds semantic-predicate evaluations by outcome
	// (true, false, error).
	Synpreds     [2]int64
	Sempreds     [3]int64
	SyntaxErrors int64

	class []core.Class // by decision ID, for strategy attribution
	prof  *Profile     // nil: the record feeds only stats and metrics
}

// NewRecorder returns an empty record shaped by meta. class gives each
// decision's static class (by decision ID); Flush merges into prof,
// which may be nil.
func NewRecorder(meta *Meta, class []core.Class, prof *Profile) *Recorder {
	return &Recorder{
		counters: newCounters(meta),
		K:        make([]DecisionK, len(meta.Decisions)),
		class:    class,
		prof:     prof,
	}
}

// Prediction records one prediction event: the lookahead depth k,
// whether speculation engaged, the chosen alternative (0 on failure),
// and the outcome. Strategy attribution follows the throttle order:
// backtracked events are backtrack regardless of k; otherwise cyclic
// decisions scan with the cyclic DFA; otherwise k ≤ 1 is LL(1) and
// deeper is LL(k).
func (r *Recorder) Prediction(dec, alt, k int, backtracked, failed bool) {
	if dec < 0 || dec >= len(r.Decisions) {
		return
	}
	d, dk := &r.Decisions[dec], &r.K[dec]
	d.Predictions++
	dk.SumK += int64(k)
	dk.Depth.observe(k)
	switch {
	case backtracked:
		d.Strategy[StratBacktrack]++
		dk.SumBacktrackK += int64(k)
	case r.class[dec] == core.ClassCyclic:
		d.Strategy[StratCyclic]++
	case k <= 1:
		d.Strategy[StratLL1]++
	default:
		d.Strategy[StratLLk]++
	}
	d.MaxK = max(d.MaxK, k)
	if failed {
		d.Errors++
		return
	}
	if alt >= 1 && alt <= len(d.Alts) {
		d.Alts[alt-1]++
	}
}

// State marks the DFA state a simulation starts in as visited.
func (r *Recorder) State(dec, id int) {
	if dec < 0 || dec >= len(r.Decisions) {
		return
	}
	if sv := r.Decisions[dec].StatesVisited; id >= 0 && id < len(sv) {
		sv[id] = true
	}
}

// Edge counts one DFA transition taken during simulation and marks
// its target state visited.
func (r *Recorder) Edge(dec, to int) {
	if dec >= 0 && dec < len(r.Decisions) {
		r.Decisions[dec].EdgesTaken++
		r.State(dec, to)
	}
}

// Speculation records one speculative sub-parse launched at a
// decision: tokens consumed before the rewind, whether it matched, the
// nesting depth it ran at, and whether it was a syntactic predicate
// (otherwise an alternative).
func (r *Recorder) Speculation(dec, consumed, depth int, ok, synpred bool) {
	if dec < 0 || dec >= len(r.Decisions) {
		return
	}
	d := &r.Decisions[dec]
	d.SpecEvents++
	d.SpecTokens += int64(consumed)
	if !ok {
		d.WastedSpecEvents++
		d.WastedSpecTokens += int64(consumed)
	}
	d.MaxSpecDepth = max(d.MaxSpecDepth, depth)
	r.SpecDepth.observe(consumed)
	r.SpecMax = max(r.SpecMax, int64(consumed))
	if synpred {
		r.Synpreds[b2i(ok)]++
	}
}

// Sempred records one semantic-predicate evaluation.
func (r *Recorder) Sempred(ok bool, err error) {
	switch {
	case err != nil:
		r.Sempreds[2]++
	case !ok:
		r.Sempreds[1]++
	default:
		r.Sempreds[0]++
	}
}

// Resync records one panic-mode recovery at a decision.
func (r *Recorder) Resync(dec, deleted int) {
	if dec < 0 || dec >= len(r.Decisions) {
		return
	}
	d := &r.Decisions[dec]
	d.Resyncs++
	d.ResyncTokens += int64(deleted)
}

// Rule records one rule invocation.
func (r *Recorder) Rule(idx int) {
	if idx >= 0 && idx < len(r.Rules) {
		r.Rules[idx].Invocations++
	}
}

// Memo records one packrat-cache lookup for a rule.
func (r *Recorder) Memo(idx int, hit bool) {
	if idx < 0 || idx >= len(r.Rules) {
		return
	}
	if hit {
		r.Rules[idx].MemoHits++
	} else {
		r.Rules[idx].MemoMisses++
	}
}

// EndParse records parse-level totals: tokens consumed and outcome.
// Only a whole parse ends this way; a fragment reparse does not count
// as one.
func (r *Recorder) EndParse(tokens int64, failed bool) {
	r.Parses++
	r.Tokens += tokens
	if failed {
		r.ParseErrors++
	}
}

// Flush merges the coverage counters into the profile (if any) and
// clears the record, keeping its shape. The interpreter calls it once
// per parse, after reading the record, so profile-lock contention is
// one acquisition per parse, not per event.
func (r *Recorder) Flush() {
	if r.prof != nil {
		r.prof.mu.Lock()
		r.prof.c.add(&r.counters)
		r.prof.mu.Unlock()
	}
	r.counters.reset()
	clear(r.K)
	r.SpecDepth, r.SpecMax = Buckets{}, 0
	r.Synpreds, r.Sempreds, r.SyntaxErrors = [2]int64{}, [3]int64{}, 0
}

// b2i indexes a fail/match pair.
func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}
