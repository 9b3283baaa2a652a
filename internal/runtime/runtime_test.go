package runtime

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"llstar/internal/token"
)

func toks(types ...token.Type) []token.Token {
	out := make([]token.Token, len(types))
	for i, t := range types {
		out[i] = token.Token{Type: t, Text: "t", Pos: token.Pos{Line: 1, Col: i + 1}}
	}
	return out
}

func TestTokenStreamBasics(t *testing.T) {
	s := NewTokenStream(&SliceSource{Tokens: toks(1, 2, 3)})
	if s.LA(1) != 1 || s.LA(2) != 2 || s.LA(4) != token.EOF || s.LA(99) != token.EOF {
		t.Fatalf("lookahead wrong")
	}
	s.Consume()
	if s.LA(1) != 2 || s.Index() != 1 {
		t.Fatalf("consume wrong")
	}
	s.Seek(0)
	if s.LA(1) != 1 {
		t.Fatalf("seek wrong")
	}
	// Consuming past EOF is a no-op.
	for i := 0; i < 10; i++ {
		s.Consume()
	}
	if s.LA(1) != token.EOF {
		t.Fatalf("must stick at EOF")
	}
}

func TestTokenStreamWatermark(t *testing.T) {
	s := NewTokenStream(&SliceSource{Tokens: toks(1, 2, 3, 4, 5)})
	s.WatermarkReset()
	s.LA(3)
	if s.Watermark() != 2 {
		t.Fatalf("watermark = %d, want 2", s.Watermark())
	}
	prev := s.WatermarkReset()
	if prev != 2 || s.Watermark() != -1 {
		t.Fatalf("reset: prev=%d cur=%d", prev, s.Watermark())
	}
	s.ExtendWatermark(7)
	if s.Watermark() != 7 {
		t.Fatalf("extend failed")
	}
}

// Property: any interleaving of Consume/Seek/LA agrees with a reference
// implementation over the same token slice.
func TestTokenStreamMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		types := make([]token.Type, n)
		for i := range types {
			types[i] = token.Type(1 + r.Intn(5))
		}
		s := NewTokenStream(&SliceSource{Tokens: toks(types...)})
		pos := 0
		la := func(i int) token.Type {
			idx := pos + i - 1
			if idx >= len(types) {
				return token.EOF
			}
			return types[idx]
		}
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0:
				k := 1 + r.Intn(4)
				if s.LA(k) != la(k) {
					return false
				}
			case 1:
				s.Consume()
				if pos < len(types) {
					pos++
				}
			case 2:
				target := r.Intn(n + 2)
				s.Seek(target)
				pos = target
				if pos > len(types) {
					pos = len(types)
				}
			}
			if s.LA(1) != la(1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMemoTable(t *testing.T) {
	m := NewMemoTable(3)
	if _, ok := m.Get(1, 5); ok {
		t.Fatal("unexpected hit")
	}
	m.Put(1, 5, 9)
	if stop, ok := m.Get(1, 5); !ok || stop != 9 {
		t.Fatalf("get: %d %v", stop, ok)
	}
	m.Put(2, 0, MemoFailed)
	if stop, ok := m.Get(2, 0); !ok || stop != MemoFailed {
		t.Fatalf("failed entry: %d %v", stop, ok)
	}
	if m.Entries() != 2 {
		t.Fatalf("entries = %d", m.Entries())
	}
	if m.Stores() != 2 {
		t.Fatalf("stores = %d, want 2", m.Stores())
	}
	// Overwriting an entry counts as a store but not a new entry.
	m.Put(1, 5, 11)
	if m.Stores() != 3 || m.Entries() != 2 {
		t.Fatalf("after overwrite: stores=%d entries=%d", m.Stores(), m.Entries())
	}
	// Out-of-range rows must not panic.
	m.Put(99, 0, 1)
	if _, ok := m.Get(99, 0); ok {
		t.Fatal("out-of-range row hit")
	}
	var nilTable *MemoTable
	if nilTable.Entries() != 0 {
		t.Fatal("nil table entries")
	}
}

func TestParseStatsStringMemo(t *testing.T) {
	ps := NewParseStats(1)
	ps.Decisions[0] = DecisionStats{Events: 1, SumK: 1, MaxK: 1}
	ps.MemoEntries = 4
	ps.MemoHits = 3
	ps.MemoMisses = 1
	ps.MemoStores = 5
	s := ps.String()
	for _, want := range []string{"memo=4", "hits=3", "misses=1", "stores=5", "hit-ratio=75.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	if got := ps.MemoHitRatio(); got != 0.75 {
		t.Errorf("MemoHitRatio = %v", got)
	}
	// No lookups at all: the ratio is 0, not NaN, and String stays terse.
	empty := NewParseStats(1)
	if got := empty.MemoHitRatio(); got != 0 {
		t.Errorf("empty ratio = %v", got)
	}
	if s := empty.String(); strings.Contains(s, "NaN") {
		t.Errorf("String() leaks NaN: %s", s)
	}
}

func TestParseStatsAggregation(t *testing.T) {
	// Events at k=1 and k=3 on decision 0; at k=5 (backtracking) and
	// k=1 on decision 1, the only one that can backtrack; none on 2.
	ps := NewParseStats(3)
	ps.Decisions[0] = DecisionStats{Events: 2, SumK: 4, MaxK: 3}
	ps.Decisions[1] = DecisionStats{Events: 2, SumK: 6, MaxK: 5, BacktrackEvents: 1, SumBacktrackK: 5, CanBacktrack: true}

	if ps.TotalEvents() != 4 {
		t.Errorf("events = %d", ps.TotalEvents())
	}
	if ps.DecisionsCovered() != 2 {
		t.Errorf("covered = %d", ps.DecisionsCovered())
	}
	if got := ps.AvgK(); got != 2.5 {
		t.Errorf("avgK = %v", got)
	}
	if ps.MaxK() != 5 {
		t.Errorf("maxK = %d", ps.MaxK())
	}
	if ps.BacktrackEvents() != 1 {
		t.Errorf("backs = %d", ps.BacktrackEvents())
	}
	if got := ps.BacktrackRatio(); got != 0.25 {
		t.Errorf("ratio = %v", got)
	}
	if got := ps.AvgBacktrackK(); got != 5 {
		t.Errorf("backK = %v", got)
	}
	if ps.CanBacktrackCount() != 1 || ps.DidBacktrackCount() != 1 {
		t.Errorf("can/did = %d/%d", ps.CanBacktrackCount(), ps.DidBacktrackCount())
	}
	if got := ps.BacktrackTriggerRate(); got != 0.5 {
		t.Errorf("trigger rate = %v", got)
	}
	if ps.String() == "" {
		t.Error("empty String")
	}
}

func TestHooksEvalPred(t *testing.T) {
	var h Hooks
	ctx := &Context{Arg: 3}
	for _, tc := range []struct {
		text string
		want bool
	}{
		{"p <= 3", true},
		{"p <= 2", false},
		{"p < 4", true},
		{"p >= 3", true},
		{"p > 3", false},
		{"p == 3", true},
		{"p != 3", false},
	} {
		got, err := h.EvalPred(tc.text, ctx)
		if err != nil {
			t.Errorf("%q: %v", tc.text, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q with arg 3: got %v", tc.text, got)
		}
	}
	// Unbound predicate errors.
	if _, err := h.EvalPred("isFoo()", ctx); err == nil {
		t.Error("unbound predicate must error")
	}
	// Bound predicate dispatches.
	h.Preds = map[string]func(*Context) bool{"isFoo()": func(*Context) bool { return true }}
	if ok, err := h.EvalPred("isFoo()", ctx); err != nil || !ok {
		t.Errorf("bound predicate: %v %v", ok, err)
	}
	// A non-nil Preds map that lacks the key still errors, naming the
	// predicate text.
	if _, err := h.EvalPred("isBar()", ctx); err == nil || !strings.Contains(err.Error(), "isBar()") {
		t.Errorf("missing-key predicate: %v", err)
	}
	// Bound-predicate text is trimmed before lookup.
	if ok, err := h.EvalPred("  isFoo()  ", ctx); err != nil || !ok {
		t.Errorf("trimmed predicate: %v %v", ok, err)
	}
}

func TestEvalArgComparisonMalformed(t *testing.T) {
	// None of these have the "<ident> OP <int>" shape; they must fall
	// through to Hooks.Preds (matched=false), not silently evaluate.
	for _, text := range []string{
		"p ?? 3",   // unknown operator
		"1 <= 3",   // literal lhs, not an identifier
		"p <= x",   // non-integer rhs
		"p <=",     // two fields
		"p",        // one field
		"p <= 3 4", // four fields
		"",         // empty
	} {
		if _, matched := evalArgComparison(text, 3); matched {
			t.Errorf("%q must not match as an arg comparison", text)
		}
	}
	// And EvalPred therefore reports them unbound.
	var h Hooks
	if _, err := h.EvalPred("1 <= 3", &Context{Arg: 3}); err == nil {
		t.Error("malformed comparison must be treated as unbound")
	}
}

func TestEvalRuleArg(t *testing.T) {
	for _, tc := range []struct {
		text   string
		caller int
		want   int
		err    bool
	}{
		{"", 7, 0, false},
		{"3", 7, 3, false},
		{"p", 7, 7, false},
		{"p + 1", 7, 8, false},
		{"p - 2", 7, 5, false},
		{"p+1", 7, 8, false}, // spacing is optional
		{"p-2", 7, 5, false},
		{"  p + 1  ", 7, 8, false},
		{"p * 2", 7, 0, true},
		{"wat?", 7, 0, true},
		{"p +", 7, 0, true},   // missing rhs
		{"+ 3", 7, 0, true},   // missing lhs (operator at index 0)
		{"2 + 2", 7, 0, true}, // lhs is not an identifier
		{"p + q", 7, 0, true}, // rhs is not an integer
	} {
		got, err := EvalRuleArg(tc.text, tc.caller)
		if (err != nil) != tc.err {
			t.Errorf("%q: err=%v", tc.text, err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%q: got %d want %d", tc.text, got, tc.want)
		}
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	e := &SyntaxError{
		Offending: token.Token{Text: "x", Pos: token.Pos{Line: 2, Col: 5}},
		Rule:      "expr",
		Msg:       "no viable alternative",
	}
	want := `2:5: rule expr: no viable alternative at "x"`
	if e.Error() != want {
		t.Errorf("got %q want %q", e.Error(), want)
	}
	eofErr := &SyntaxError{Offending: token.Token{Type: token.EOF}, Msg: "m"}
	if got := eofErr.Error(); got != `0:0: m at "<EOF>"` {
		t.Errorf("eof error: %q", got)
	}
}
