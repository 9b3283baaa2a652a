package atn

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// maxLexDFAStates bounds lexer subset construction; real grammars stay
// far below it, so hitting the cap means a pathological lexer, and both
// lexing and generation fail loudly rather than building a huge table.
const maxLexDFAStates = 8192

// LexDFA is the determinization of a grammar's character-level ATN: the
// subset construction over an alphabet partitioned into equivalence
// classes, producing dense tables a lexer walks with one array index per
// character. lexrt's lexers walk it at run time and codegen emits it as
// the generated Tokenize's tables. It is read-only once built.
type LexDFA struct {
	NumClasses int
	// AsciiClass maps runes < 128 straight to their class.
	AsciiClass [128]uint16
	// ClassLo/ClassID describe classes for runes >= 128 as sorted
	// half-open intervals: the class of r is ClassID[i] for the last i
	// with ClassLo[i] <= r.
	ClassLo []int32
	ClassID []uint16
	// Next is the dense transition table: Next[state*NumClasses+class],
	// -1 for dead ends. Accept[state] is the lowest-index accepting
	// lexer rule, -1 for none. State 0 is the start state.
	Next   []int32
	Accept []int32
}

// Class maps a rune to its alphabet equivalence class: a direct index
// for ASCII, a binary search over interval starts above it.
func (d *LexDFA) Class(r rune) int {
	if r < 128 {
		return int(d.AsciiClass[r])
	}
	lo, hi := 0, len(d.ClassLo)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.ClassLo[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int(d.ClassID[lo-1])
}

// DFA returns the machine's lexer DFA, determinizing it on the first
// call; concurrent callers share that one build and its result. A nil
// machine (no lexer rules) yields a single dead state, so any input is
// rejected.
func (lm *LexMachine) DFA() (*LexDFA, error) {
	if lm == nil {
		return &LexDFA{NumClasses: 1, Next: []int32{-1}, Accept: []int32{-1}}, nil
	}
	lm.dfaOnce.Do(func() { lm.dfa, lm.dfaErr = buildLexDFA(lm) })
	return lm.dfa, lm.dfaErr
}

// buildLexDFA determinizes lm.
func buildLexDFA(lm *LexMachine) (*LexDFA, error) {
	d := &LexDFA{}

	// Collect every non-epsilon character transition; their range
	// boundaries partition the alphabet so that within one interval all
	// transitions agree (wildcards and negated sets agree everywhere
	// their underlying ranges do).
	var trans []*Trans
	for _, s := range lm.States {
		for _, tr := range s.Trans {
			if tr.Kind != TEpsilon {
				trans = append(trans, tr)
			}
		}
	}
	const maxRune = 0x10FFFF
	bounds := map[rune]bool{0: true}
	for _, tr := range trans {
		switch tr.Kind {
		case TChar:
			bounds[tr.Lo] = true
			if tr.Hi < maxRune {
				bounds[tr.Hi+1] = true
			}
		case TCharSet:
			for _, rr := range tr.CharRanges {
				bounds[rr.Lo] = true
				if rr.Hi < maxRune {
					bounds[rr.Hi+1] = true
				}
			}
		}
	}
	starts := make([]rune, 0, len(bounds))
	for r := range bounds {
		if r >= 0 && r <= maxRune {
			starts = append(starts, r)
		}
	}
	slices.Sort(starts)

	// Intern each interval's transition signature as a class; the
	// representative rune of a class drives subset construction.
	classOf := make(map[string]uint16)
	var reprs []rune
	intervalClass := make([]uint16, len(starts))
	var sig strings.Builder
	for i, lo := range starts {
		sig.Reset()
		for _, tr := range trans {
			if tr.MatchesRune(lo) {
				sig.WriteByte('1')
			} else {
				sig.WriteByte('0')
			}
		}
		cls, ok := classOf[sig.String()]
		if !ok {
			cls = uint16(len(reprs))
			classOf[sig.String()] = cls
			reprs = append(reprs, lo)
		}
		intervalClass[i] = cls
	}
	d.NumClasses = len(reprs)

	// Fill the ASCII fast path and the interval table for the rest.
	cls := func(r rune) uint16 {
		i := sort.Search(len(starts), func(i int) bool { return starts[i] > r }) - 1
		return intervalClass[i]
	}
	for r := rune(0); r < 128; r++ {
		d.AsciiClass[r] = cls(r)
	}
	for i, lo := range starts {
		end := rune(maxRune)
		if i+1 < len(starts) {
			end = starts[i+1] - 1
		}
		if end < 128 {
			continue
		}
		d.ClassLo = append(d.ClassLo, int32(lo))
		d.ClassID = append(d.ClassID, intervalClass[i])
	}
	if len(d.ClassLo) == 0 { // all-ASCII alphabet: one catch-all interval
		d.ClassLo = []int32{128}
		d.ClassID = []uint16{cls(128)}
	}

	// Subset construction over the class alphabet. A configuration set
	// is interned under its sorted member IDs; the key and the move
	// buffer are reused, so only a new set allocates.
	intern := make(map[string]int32)
	var sets [][]*State
	var kb []byte
	add := func(members []*State) int32 {
		slices.SortFunc(members, func(a, b *State) int { return a.ID - b.ID })
		kb = kb[:0]
		for _, s := range members {
			kb = binary.AppendUvarint(kb, uint64(s.ID))
		}
		if id, ok := intern[string(kb)]; ok {
			return id
		}
		id := int32(len(sets))
		intern[string(kb)] = id
		sets = append(sets, slices.Clone(members))
		return id
	}
	var move []*State
	add(append(move, lm.Closure(lm.Start)...))

	seen := make([]int, len(lm.States))
	gen := 0
	for si := 0; si < len(sets); si++ {
		if len(sets) > maxLexDFAStates {
			return nil, fmt.Errorf("atn: lexer DFA exceeds %d states", maxLexDFAStates)
		}
		members := sets[si]
		best := -1
		for _, s := range members {
			if r := lm.AcceptRule(s); r >= 0 && (best < 0 || r < best) {
				best = r
			}
		}
		d.Accept = append(d.Accept, int32(best))
		for c := 0; c < d.NumClasses; c++ {
			gen++
			move = move[:0]
			for _, s := range members {
				for _, tr := range s.Trans {
					if tr.Kind == TEpsilon || !tr.MatchesRune(reprs[c]) {
						continue
					}
					for _, t := range lm.Closure(tr.To) {
						if seen[t.ID] != gen {
							seen[t.ID] = gen
							move = append(move, t)
						}
					}
				}
			}
			next := int32(-1)
			if len(move) > 0 {
				next = add(move)
			}
			d.Next = append(d.Next, next)
		}
	}
	return d, nil
}
