package lexrt

import (
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"llstar/internal/atn"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// refLex is the reference the table lexer is fuzzed against: a plain NFA
// simulation of the character-level ATN with nothing cached. It keeps
// the set of live states (ε-closed by its own walk), steps it rune by
// rune, remembers the longest prefix at which some rule's stop state was
// live, and among the rules accepting there picks the first declared.
func refLex(lm *atn.LexMachine, input string) ([]token.Token, error) {
	closure := func(set []*atn.State) []*atn.State {
		in := make(map[*atn.State]bool)
		var out []*atn.State
		for len(set) > 0 {
			s := set[len(set)-1]
			set = set[:len(set)-1]
			if in[s] {
				continue
			}
			in[s] = true
			out = append(out, s)
			for _, tr := range s.Trans {
				if tr.Kind == atn.TEpsilon {
					set = append(set, tr.To)
				}
			}
		}
		return out
	}
	accept := func(set []*atn.State) int {
		live := make(map[*atn.State]bool, len(set))
		for _, s := range set {
			live[s] = true
		}
		for i, info := range lm.Rules {
			if live[info.Stop] {
				return i
			}
		}
		return -1
	}

	var runes []rune
	var sizes []int
	for i := 0; i < len(input); {
		r, n := utf8.DecodeRuneInString(input[i:])
		runes, sizes = append(runes, r), append(sizes, n)
		i += n
	}
	var out []token.Token
	line, col, off := 1, 1, 0
	for pos := 0; pos < len(runes); {
		set := closure([]*atn.State{lm.Start})
		bestEnd, bestRule := -1, accept(set)
		if bestRule >= 0 {
			bestEnd = pos
		}
		for i := pos; i < len(runes) && len(set) > 0; i++ {
			var next []*atn.State
			for _, s := range set {
				for _, tr := range s.Trans {
					if tr.Kind != atn.TEpsilon && tr.MatchesRune(runes[i]) {
						next = append(next, tr.To)
					}
				}
			}
			set = closure(next)
			if r := accept(set); r >= 0 {
				bestEnd, bestRule = i+1, r
			}
		}
		startPos, startOff := token.Pos{Line: line, Col: col}, off
		if bestRule < 0 {
			return out, &runtime.LexError{Pos: startPos, Rune: runes[pos]}
		}
		for i := pos; i < bestEnd; i++ {
			if runes[i] == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
			off += sizes[i]
		}
		if info := lm.Rules[bestRule]; !info.Skip {
			out = append(out, token.Token{Type: info.Type, Text: string(runes[pos:bestEnd]),
				Pos: startPos, Off: startOff, Channel: info.Channel})
		}
		pos = bestEnd
	}
	return append(out, token.Token{Type: token.EOF, Pos: token.Pos{Line: line, Col: col}, Off: off}), nil
}

// sameLexErr reports whether two lexer outcomes failed alike: both nil,
// or both a LexError at the same position on the same rune.
func sameLexErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	x, xok := a.(*runtime.LexError)
	y, yok := b.(*runtime.LexError)
	return xok && yok && *x == *y
}

// FuzzLexTables checks the table-driven lexer, batch and chunk-fed over
// a 2- or 3-way split of the input, against refLex for the torture
// grammar and json.g.
func FuzzLexTables(f *testing.F) {
	src, err := os.ReadFile(filepath.Join("..", "..", "grammars", "json.g"))
	if err != nil {
		f.Fatal(err)
	}
	machines := []*atn.LexMachine{buildLex(f, tortureGrammar), buildLex(f, string(src))}
	for _, seed := range []string{
		"a->b <= c << d >> e == f = g",
		`"hello \"world\" \\ end" abc`,
		"caf\u00e9 \u4e16\u754c \u6f22\u5b57x 42",
		"<<<=<<=->-x=== \"q\"",
		`{"k\u00e9y": [1.5e-3, true, "v\\\"al"], "n": null}`,
		"ab\xffcd \xc3(",
		"[-0, 10.25E+7, 3e9, {}, [], false]\n\t12 @",
	} {
		f.Add(seed, uint16(len(seed)/3), uint16(len(seed)/2), false)
	}
	f.Fuzz(func(t *testing.T, input string, a, b uint16, threeWay bool) {
		cuts := []int{int(a) % (len(input) + 1)}
		if threeWay {
			c2 := int(b) % (len(input) + 1)
			cuts = append(cuts, max(cuts[0], c2))
			cuts[0] = min(cuts[0], c2)
		}
		for i, lm := range machines {
			want, werr := refLex(lm, input)
			got, err := batchAll(t, lm, input)
			if !sameLexErr(err, werr) || !sameToks(got, want) {
				t.Fatalf("grammar %d, batch %q:\n got %+v %v\nwant %+v %v", i, input, got, err, want, werr)
			}
			got, err = chunkAll(t, lm, input, cuts)
			if !sameLexErr(err, werr) || !sameToks(got, want) {
				t.Fatalf("grammar %d, chunks %q cuts=%v:\n got %+v %v\nwant %+v %v", i, input, cuts, got, err, want, werr)
			}
		}
	})
}
