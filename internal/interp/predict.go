package interp

import (
	"fmt"
	"time"

	"llstar/internal/atn"
	"llstar/internal/dfa"
	"llstar/internal/grammar"
	"llstar/internal/llk"
	"llstar/internal/obs"
)

// predict chooses an alternative at a decision point: it simulates the
// lookahead DFA over the token stream, evaluating predicate edges in
// precedence order when the DFA says lookahead alone cannot decide, and
// speculating (with memoization) for syntactic/auto predicates.
func (p *Parser) predict(dec *atn.Decision, fr *frame) (int, error) {
	d := p.dfas[dec.ID]
	if p.spec == 0 {
		// New top-level decision: stale speculative failures from prior
		// decisions must not leak into this one's error reporting.
		p.deepestIdx = -1
		p.deepestErr = nil
	}

	// Lookahead-depth measurement costs a watermark reset per decision
	// event; skip it entirely when not profiling.
	var startIdx, savedHigh int
	if p.measureK {
		startIdx = p.stream.Index()
		savedHigh = p.stream.WatermarkReset()
	}
	var predT0 time.Duration
	if p.tr != nil {
		predT0 = p.tr.Now()
	}

	backtracked := false
	var alt int
	var err error
	if p.approx != nil {
		alt, err = p.approxPredict(dec, fr, &backtracked)
	} else {
		alt, err = p.simulate(d, dec, fr, &backtracked)
	}

	if p.measureK {
		k := 0
		if wm := p.stream.Watermark(); wm >= startIdx {
			k = wm - startIdx + 1
		}
		p.stream.ExtendWatermark(savedHigh)
		if p.rec != nil {
			p.rec.Prediction(dec.ID, alt, k, backtracked, err != nil)
		}
		if p.tr != nil {
			p.tr.Emit(obs.Event{
				Name: "predict", Cat: obs.PhaseRuntime, Ph: obs.PhSpan,
				TS: predT0, Dur: p.tr.Now() - predT0,
				Decision: dec.ID, Rule: fr.rule.Name, Alt: alt,
				K: k, Depth: p.spec, Throttle: p.class[dec.ID].String(),
				Backtracked: backtracked, OK: err == nil,
			})
		}
	}
	return alt, err
}

func (p *Parser) simulate(d *dfa.DFA, dec *atn.Decision, fr *frame, backtracked *bool) (int, error) {
	s := d.Start
	i := 0
	if p.rec != nil {
		p.rec.State(dec.ID, s.ID)
	}
	for {
		if s.AcceptAlt > 0 {
			return s.AcceptAlt, nil
		}
		var next *dfa.State
		if len(s.Edges) > 0 || s.Default != nil {
			next = s.Target(p.stream.LA(i + 1))
		}
		if next != nil {
			i++
			s = next
			if p.rec != nil {
				p.rec.Edge(dec.ID, s.ID)
			}
			continue
		}
		if len(s.PredEdges) > 0 {
			return p.resolvePreds(s.PredEdges, dec, fr, backtracked)
		}
		// Report the error at the token that drove the DFA into the
		// error state (Section 4.4), not where prediction started.
		bad := p.stream.LT(i + 1)
		se := p.syntaxErr(bad, fr.rule.Name, fmt.Sprintf("no viable alternative for %s", dec.Desc))
		p.noteFailure(se)
		return 0, se
	}
}

// resolvePreds evaluates predicate edges in precedence order.
func (p *Parser) resolvePreds(edges []dfa.PredEdge, dec *atn.Decision, fr *frame, backtracked *bool) (int, error) {
	for _, e := range edges {
		switch e.Kind {
		case dfa.PredTrue:
			return e.Alt, nil
		case dfa.PredSem:
			ok, err := p.evalSemPred(e.Sem.Text, fr)
			if err != nil {
				return 0, err
			}
			if ok {
				return e.Alt, nil
			}
		case dfa.PredSyn:
			*backtracked = true
			if p.specSynPred(e.SynID, dec, fr) {
				return e.Alt, nil
			}
		case dfa.PredAuto:
			*backtracked = true
			if p.specAlt(dec, e.Alt, fr) {
				return e.Alt, nil
			}
		}
	}
	// Everything failed: report at the deepest point reached by a failed
	// speculative parse if it is beyond the current token (Section 4.4).
	if p.deepestErr != nil && p.deepestIdx >= p.stream.Index() {
		return 0, p.deepestErr
	}
	se := p.syntaxErr(p.stream.LT(1), fr.rule.Name, fmt.Sprintf("no viable alternative for %s", dec.Desc))
	return 0, se
}

// approxPredict is the v2-mode decision procedure: filter alternatives
// through the linear-approximate LL(k) tables; if more than one survives,
// speculate the survivors in order (ordered backtracking).
func (p *Parser) approxPredict(dec *atn.Decision, fr *frame, backtracked *bool) (int, error) {
	t := p.approx[dec.ID]
	if t == nil {
		t = llk.Compute(p.m, dec, p.opts.ApproxK)
		p.approx[dec.ID] = t
	}
	alt, viable, _ := t.Predict(p.stream)
	if alt > 0 {
		return alt, nil
	}
	if len(viable) == 0 {
		se := p.syntaxErr(p.stream.LT(1), fr.rule.Name,
			fmt.Sprintf("no viable alternative for %s (approximate LL(%d))", dec.Desc, t.K))
		p.noteFailure(se)
		return 0, se
	}
	// Multiple candidates survive the approximation: speculate in order,
	// taking exit branches as defaults rather than speculating them.
	for i, a := range viable {
		if dec.HasExitAlt() && a == dec.NAlts {
			return a, nil
		}
		if i == len(viable)-1 {
			return a, nil // last candidate: parse it for real
		}
		*backtracked = true
		if p.specAlt(dec, a, fr) {
			return a, nil
		}
	}
	return viable[len(viable)-1], nil
}

// specAlt speculatively matches alternative alt's body (PEG-mode
// backtracking): parse from its left edge to the decision's join point
// with mutators off, then rewind.
func (p *Parser) specAlt(dec *atn.Decision, alt int, fr *frame) bool {
	return p.speculate(dec, dec.AltStart[alt-1], dec.End, dec.Rule, alt, false, fr)
}

// specSynPred speculatively matches an explicit syntactic predicate
// fragment (α)=>. dec is the decision whose prediction launched the
// speculation, for coverage attribution.
func (p *Parser) specSynPred(id int, dec *atn.Decision, fr *frame) bool {
	def := p.m.SynPreds[id]
	return p.speculate(dec, def.Start, def.Stop, def.Rule, id, true, fr)
}

// speculate walks from start to stop in rule with mutators off, rewinds,
// and reports whether the walk matched. alt is the alternative (or, for
// a synpred, the predicate ID) it tried for decision dec.
func (p *Parser) speculate(dec *atn.Decision, start, stop *atn.State, rule *grammar.Rule, alt int, synpred bool, fr *frame) bool {
	at := p.stream.Index()
	var t0 time.Duration
	if p.tr != nil {
		t0 = p.tr.Now()
	}
	p.spec++
	err := p.walk(start, stop, &frame{rule: rule, arg: fr.arg})
	p.spec--
	consumed := p.stream.Index() - at
	p.stream.Seek(at)
	if p.rec != nil {
		p.rec.Speculation(dec.ID, consumed, p.spec+1, err == nil, synpred)
	}
	if p.tr != nil {
		name, decID := "speculate.alt", dec.ID
		if synpred {
			name, decID = "speculate.synpred", -1
		}
		p.tr.Emit(obs.Event{
			Name: name, Cat: obs.PhaseRuntime, Ph: obs.PhSpan,
			TS: t0, Dur: p.tr.Now() - t0,
			Decision: decID, Rule: rule.Name, Alt: alt,
			K: consumed, Depth: p.spec + 1, OK: err == nil,
		})
	}
	return err == nil
}
