// Package interp executes parses over an analyzed grammar exactly the way
// an ANTLR-generated LL(*) parser would: recursive descent over the ATN,
// with each decision driven by its lookahead DFA, failing over to
// speculation (syntactic predicates / PEG-mode backtracking) where the
// DFA says so, memoizing speculative rule invocations, gating mutators
// during speculation, and reporting errors at the offending token.
package interp

import (
	"fmt"
	"time"

	"llstar/internal/atn"
	"llstar/internal/core"
	"llstar/internal/cover"
	"llstar/internal/dfa"
	"llstar/internal/grammar"
	"llstar/internal/lexrt"
	"llstar/internal/llk"
	"llstar/internal/obs"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// Options configure a parser.
type Options struct {
	// Memoize enables the packrat cache for speculative parses. Nil means
	// "use the grammar's memoize option".
	Memoize *bool
	// CollectStats enables per-decision profiling (Tables 2–4 data).
	CollectStats bool
	// BuildTree enables parse-tree construction.
	BuildTree bool
	// Hooks binds semantic predicates and actions.
	Hooks runtime.Hooks
	// State is the initial user state (the paper's S).
	State any
	// ErrorListener, if set, observes syntax errors when they surface.
	ErrorListener runtime.ErrorListener
	// ApproxK, when > 0, switches predictions to ANTLR-v2-style linear
	// approximate LL(k) tables of that depth instead of LL(*) lookahead
	// DFA; decisions the approximation cannot make speculate alternatives
	// in order. Used by the Section 6.2 v2-vs-v3 comparison.
	ApproxK int
	// Recover enables error recovery: failed token matches try
	// single-token deletion then insertion, failed predictions resync by
	// deleting tokens; the parse continues and Errors() collects every
	// syntax error (up to MaxErrors).
	Recover bool
	// MaxErrors caps collected errors in Recover mode (default 10).
	MaxErrors int
	// Tracer, if set, receives structured runtime events: parse and
	// prediction spans (with throttle level and lookahead depth),
	// speculation spans, predicate evaluations, memo hits/misses, and
	// error-recovery resyncs. Nil (or obs.Nop) costs nothing.
	Tracer obs.Tracer
	// Flight, if set, is teed with Tracer: a second, typically
	// request-scoped event sink (the flight recorder's ring buffer).
	// Nil costs nothing — with neither Tracer nor Flight the runtime
	// tracer is nil and every emission site is one nil check.
	Flight obs.Tracer
	// Metrics, if set, accumulates runtime counters and histograms
	// (prediction events by throttle level, lookahead-depth
	// distributions, speculation and memo activity), flushed from the
	// parser's per-parse record once at parse end.
	Metrics *obs.Metrics
	// Coverage, if set, is the shared destination for decision-level
	// coverage counters: the parser's per-parse record merges into this
	// profile once at parse end, so pooled and concurrent parsers
	// accumulate into one aggregate.
	Coverage *cover.Profile
	// Listener, if set, receives SAX-style events (rule enter/exit,
	// committed tokens) exactly where tree nodes are (or would be)
	// built. Streaming sessions use it in place of BuildTree. Nil costs
	// one pointer check per site.
	Listener runtime.ParseListener
	// Window enables sliding-window token retention: the stream drops
	// retired tokens (and the memo table their verdicts) as the parse
	// commits past them, bounding memory by grammar depth + lookahead
	// instead of input length. Requires BuildTree to be off.
	Window bool
}

// Parser interprets an analyzed grammar. A Parser is reusable: every
// ParseString/ParseTokens call resets the per-parse state (token stream,
// memo table, speculation depth, recovered errors) before running, and
// clears the per-parse record once stats, metrics and coverage have
// read it, so one instance can serve many sequential parses — lazily
// built approximate-LL(k) tables and the throttle cache carry over. It
// is NOT safe for concurrent use; the analyzed core.Result it reads is
// immutable, so any number of Parsers may share it across goroutines.
type Parser struct {
	res  *core.Result
	m    *atn.Machine
	dfas []*dfa.DFA
	opts Options

	stream *runtime.TokenStream
	memo   *runtime.MemoTable
	spec   int // speculation nesting depth
	ctx    runtime.Context

	// deepest failure seen during speculation, for Section 4.4 reporting
	deepestIdx int
	deepestErr *runtime.SyntaxError

	// approx holds lazily-built v2-style lookahead tables per decision
	// when Options.ApproxK > 0.
	approx []*llk.Tables

	// errors collects recovered syntax errors (Recover mode).
	errors []*runtime.SyntaxError

	// tr is the normalized tracer (nil when tracing is off — the hot
	// path gates on this single nil check). base is the
	// construction-time tracer AttachTracer restores when a per-parse
	// auxiliary sink detaches.
	tr   obs.Tracer
	base obs.Tracer
	// rec is the one per-parse record (nil unless stats, metrics or
	// coverage is on): each instrumentation site writes its fact there
	// once, and endParse reads it into stats, metrics and coverage.
	rec   *cover.Recorder
	stats *runtime.ParseStats
	mx    *metricHandles
	// lsn is the SAX listener (nil when off — one nil check per site).
	lsn runtime.ParseListener
	// measureK enables the lookahead watermark bookkeeping in predict;
	// set when the record or the tracer needs depth data.
	measureK bool
	// class caches each decision's static class (its throttle label:
	// "fixed", "cyclic", "backtrack"); nil unless tr or rec.
	class []core.Class
}

// New returns a parser for an analyzed grammar.
func New(res *core.Result, opts Options) *Parser {
	p := &Parser{res: res, m: res.Machine, dfas: res.DFAs, opts: opts}
	if opts.ApproxK > 0 {
		p.approx = make([]*llk.Tables, len(res.DFAs))
	}
	p.base = obs.Tee(opts.Tracer, opts.Flight)
	p.lsn = opts.Listener
	if opts.CollectStats || opts.Metrics != nil || opts.Coverage != nil {
		p.buildClass()
		meta := cover.NewMeta(res)
		p.rec = cover.NewRecorder(&meta, p.class, opts.Coverage)
	}
	if opts.CollectStats {
		p.stats = runtime.NewParseStats(len(res.DFAs))
		p.fillStats(nil)
	}
	if opts.Metrics != nil {
		p.mx = &metricHandles{mx: opts.Metrics, decDepth: make([]*obs.Histogram, len(res.DFAs))}
	}
	p.AttachTracer(nil)
	return p
}

// buildClass caches each decision's static class for event labeling.
func (p *Parser) buildClass() {
	p.class = make([]core.Class, len(p.res.DFAs))
	for _, di := range p.res.Decisions {
		p.class[di.Decision.ID] = di.Class
	}
}

// AttachTracer tees a per-parse auxiliary event sink (typically a
// flight recorder ring) with the parser's construction-time tracer;
// AttachTracer(nil) detaches it, restoring construction-time behavior
// exactly — including the nil-tracer fast path. The server attaches a
// request's recorder to a pooled parser this way and detaches before
// returning it. Call only between parses: the tracer must not change
// mid-parse.
func (p *Parser) AttachTracer(aux obs.Tracer) {
	p.tr = obs.Tee(p.base, aux)
	if p.tr != nil && p.class == nil {
		p.buildClass()
	}
	p.measureK = p.rec != nil || p.tr != nil
}

// Tracer returns the runtime tracer after normalization: nil when
// neither a tracer nor a flight sink is active, so every emission site
// costs one nil check.
func (p *Parser) Tracer() obs.Tracer { return p.tr }

// Stats returns the profile of the most recent parse (nil unless
// CollectStats was set; filled from the record when each parse ends).
func (p *Parser) Stats() *runtime.ParseStats { return p.stats }

// Errors returns the syntax errors recovered during the last parse
// (Recover mode; empty otherwise).
func (p *Parser) Errors() []*runtime.SyntaxError { return p.errors }

// maxErrors returns the recovery error budget.
func (p *Parser) maxErrors() int {
	if p.opts.MaxErrors > 0 {
		return p.opts.MaxErrors
	}
	return 10
}

// report records a recovered error; it returns non-nil when recovery must
// stop (not recovering, speculating, or over budget).
func (p *Parser) report(se *runtime.SyntaxError) error {
	if p.spec > 0 || !p.opts.Recover {
		return se
	}
	p.errors = append(p.errors, se)
	p.noteError(se)
	if len(p.errors) >= p.maxErrors() {
		return se
	}
	return nil
}

// noteError instruments one syntax error that surfaces to the caller:
// each recovered error, or the terminal error of a non-recovering
// parse.
func (p *Parser) noteError(se *runtime.SyntaxError) {
	if p.tr != nil {
		p.tr.Emit(obs.Event{
			Name: "error", Cat: obs.PhaseRuntime, Ph: obs.PhInstant, TS: p.tr.Now(),
			Decision: -1, Rule: se.Rule, Detail: se.Msg, N: int64(se.Offending.Index),
		})
	}
	if p.rec != nil {
		p.rec.SyntaxErrors++
	}
	if p.opts.ErrorListener != nil {
		p.opts.ErrorListener(se)
	}
}

// memoEnabled reports whether memoization applies for this parse.
func (p *Parser) memoEnabled() bool {
	if p.opts.Memoize != nil {
		return *p.opts.Memoize
	}
	return p.res.Grammar.Options.Memoize
}

// ParseString lexes input with the grammar's lexer rules and parses it
// starting at startRule, requiring all input to be consumed.
func (p *Parser) ParseString(startRule, input string) (*Node, error) {
	if p.m.Lex == nil {
		return nil, fmt.Errorf("interp: grammar %s has no lexer rules; use ParseTokens", p.res.Grammar.Name)
	}
	lx := lexrt.New(p.m.Lex, input)
	return p.ParseTokens(startRule, runtime.NewTokenStream(lx))
}

// ParseTokens parses a token stream starting at startRule, requiring all
// input to be consumed.
func (p *Parser) ParseTokens(startRule string, stream *runtime.TokenStream) (*Node, error) {
	idx := p.m.RuleIndexByName(startRule)
	if idx < 0 {
		return nil, fmt.Errorf("interp: no parser rule %s", startRule)
	}
	defer p.endParse()
	p.stream = stream
	p.memo = nil
	if p.memoEnabled() {
		p.memo = runtime.NewMemoTable(len(p.res.Grammar.Rules))
	}
	if p.opts.Window && !p.opts.BuildTree {
		stream.EnableWindow()
	}
	p.spec = 0
	p.deepestIdx = -1
	p.deepestErr = nil
	p.errors = nil
	p.ctx = runtime.Context{Stream: stream, State: p.opts.State}

	var holder *Node
	if p.opts.BuildTree {
		holder = &Node{}
	}
	var parseT0 time.Duration
	if p.tr != nil {
		parseT0 = p.tr.Now()
	}
	err := p.parseRule(idx, 0, holder)
	if err == nil && stream.LA(1) != token.EOF {
		se := p.syntaxErr(stream.LT(1), startRule, "extraneous input after parse")
		if rerr := p.report(se); rerr != nil {
			err = rerr
		}
	}
	// In recover mode report already instrumented every syntax error;
	// here only the terminal error of a non-recovering parse still needs
	// it.
	if se, ok := err.(*runtime.SyntaxError); ok && !p.opts.Recover {
		p.noteError(se)
	}
	if p.tr != nil {
		p.tr.Emit(obs.Event{
			Name: "parse", Cat: obs.PhaseRuntime, Ph: obs.PhSpan,
			TS: parseT0, Dur: p.tr.Now() - parseT0, Decision: -1,
			Rule: startRule, OK: err == nil, N: int64(stream.Size()),
		})
	}
	if p.rec != nil {
		p.rec.EndParse(int64(stream.Size()), err != nil)
	}
	if err != nil {
		return nil, err
	}
	var root *Node
	if holder != nil && len(holder.Children) > 0 {
		root = holder.Children[0]
	}
	if lexErr := stream.Err(); lexErr != nil {
		return nil, lexErr
	}
	return root, nil
}

// Memo returns the memo table of the most recent parse (nil when
// memoization is off). Incremental sessions retain it across edits.
func (p *Parser) Memo() *runtime.MemoTable { return p.memo }

// ParseFragment parses a single invocation of startRule over stream,
// without requiring the input to be consumed to EOF, and returns the
// tree (when BuildTree is on) and the stream position after the rule.
// memo, which may be nil, is used as the speculation cache — incremental
// reparse passes a rebased table from a prior parse so verdicts outside
// the damaged region are reused. The SAX listener is suppressed for the
// duration: fragment reparses repair state, they do not replay events.
func (p *Parser) ParseFragment(startRule string, stream *runtime.TokenStream, memo *runtime.MemoTable) (*Node, int, error) {
	idx := p.m.RuleIndexByName(startRule)
	if idx < 0 {
		return nil, 0, fmt.Errorf("interp: no parser rule %s", startRule)
	}
	defer p.endParse()
	p.stream = stream
	p.memo = memo
	p.spec = 0
	p.deepestIdx = -1
	p.deepestErr = nil
	p.errors = nil
	p.ctx = runtime.Context{Stream: stream, State: p.opts.State}
	savedLsn := p.lsn
	p.lsn = nil
	var holder *Node
	if p.opts.BuildTree {
		holder = &Node{}
	}
	err := p.parseRule(idx, 0, holder)
	p.lsn = savedLsn
	stop := stream.Index()
	if err != nil {
		return nil, stop, err
	}
	if lexErr := stream.Err(); lexErr != nil {
		return nil, stop, lexErr
	}
	var root *Node
	if holder != nil && len(holder.Children) > 0 {
		root = holder.Children[0]
	}
	return root, stop, nil
}

func (p *Parser) syntaxErr(at token.Token, rule, msg string) *runtime.SyntaxError {
	return &runtime.SyntaxError{Offending: at, Rule: rule, Msg: msg}
}

// noteFailure records the deepest speculative failure (Section 4.4: report
// errors at the deepest symbol reached by a failed speculative parse).
func (p *Parser) noteFailure(err *runtime.SyntaxError) {
	if idx := err.Offending.Index; idx >= p.deepestIdx {
		p.deepestIdx = idx
		p.deepestErr = err
	}
}

// parseRule parses one rule invocation. arg is the rule's integer
// argument (parameterized rules); parent receives the rule's tree node.
func (p *Parser) parseRule(idx, arg int, parent *Node) error {
	r := p.res.Grammar.Rules[idx]
	if p.rec != nil {
		p.rec.Rule(idx)
	}
	memoizable := p.memo != nil && p.spec > 0 && r.Args == "" && r.OptionBool("memoize", true)
	start := p.stream.Index()
	if memoizable {
		stop, ok := p.memo.Get(idx, start)
		if p.rec != nil {
			p.rec.Memo(idx, ok)
		}
		if p.tr != nil {
			name := "memo.miss"
			if ok {
				name = "memo.hit"
			}
			p.tr.Emit(obs.Event{
				Name: name, Cat: obs.PhaseRuntime, Ph: obs.PhInstant, TS: p.tr.Now(),
				Decision: -1, Rule: r.Name, Depth: p.spec,
				OK: ok && stop != runtime.MemoFailed, N: int64(start),
			})
		}
		if ok {
			if stop == runtime.MemoFailed {
				return p.syntaxErr(p.stream.LT(1), r.Name, "memoized failure")
			}
			p.stream.Seek(stop)
			return nil
		}
	}

	var node *Node
	if parent != nil && p.spec == 0 {
		node = &Node{Rule: r.Name}
		parent.Children = append(parent.Children, node)
	}
	// The listener mirrors tree construction: at spec==0 a node is
	// always built when BuildTree is on, so firing on spec==0 alone
	// yields the identical rule structure with trees off.
	if p.lsn != nil && p.spec == 0 {
		p.lsn.EnterRule(r.Name)
	}

	err := p.walk(p.m.RuleStart[idx], p.m.RuleStop[idx], &frame{rule: r, arg: arg, node: node})
	if p.lsn != nil && p.spec == 0 {
		p.lsn.ExitRule(r.Name)
	}
	if memoizable {
		if err != nil {
			p.memo.Put(idx, start, runtime.MemoFailed)
		} else {
			p.memo.Put(idx, start, p.stream.Index())
		}
	}
	return err
}

// frame is one rule invocation's context.
type frame struct {
	rule *grammar.Rule
	arg  int
	node *Node
}
