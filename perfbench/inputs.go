package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"llstar"
	"llstar/internal/bench"
	"llstar/internal/interp"
	"llstar/internal/lexrt"
	"llstar/internal/peg"
	"llstar/internal/runtime"
)

// Input sizes. Server traffic uses 200-line bodies (5-7 KB, the size a
// /v1/parse client sends); library batch parsing and session documents
// use 2000-line files.
const (
	serveLines    = 200
	serveVariants = 8
	batchLines    = 2000
	batchVariants = 2
)

// gspec is one of the six benchmark grammars, named by its file stem,
// which is also its name on the server.
type gspec struct {
	name string
	w    bench.Workload
	src  string
}

func grammarSpecs() ([]gspec, error) {
	out := make([]gspec, 0, len(bench.Workloads))
	for _, w := range bench.Workloads {
		src, err := w.GrammarText()
		if err != nil {
			return nil, err
		}
		out = append(out, gspec{name: strings.TrimSuffix(w.File, ".g"), w: w, src: src})
	}
	return out, nil
}

// inputSeed derives the seed of input variant v. Variant 0 uses the
// run's seed unchanged, so the ladder's counts at 300 lines line up
// with the BENCH_*.json trajectory, which generated inputs the same way.
func inputSeed(seed int64, v int) int64 { return seed + int64(v)*1_000_003 }

// genInputs makes n variants of lines-line inputs for g.
func genInputs(g gspec, seed int64, lines, n int) []string {
	out := make([]string, n)
	for v := range out {
		out[v] = g.w.Input(inputSeed(seed, v), lines)
	}
	return out
}

// reference is the checked expected output of one input.
type reference struct {
	tree   string // s-expression of the LL(*) tree
	digest uint64
	lines  int
}

// oracle checks one input against the repo's differential baselines
// before anything is timed: the LL(*) tree must equal the approximate
// LL(2) tree, and for PEG-mode grammars the packrat baseline must
// accept the input. It returns the reference the timed outputs are
// compared with.
func oracle(g *llstar.Grammar, name, rule string, pegMode bool, input string) (reference, error) {
	ll, err := g.NewParser(llstar.WithTree()).Parse(rule, input)
	if err != nil {
		return reference{}, fmt.Errorf("%s: LL(*) rejects generated input: %w", name, err)
	}
	ap, err := g.NewParser(llstar.WithTree(), llstar.WithApproxLLK(2)).Parse(rule, input)
	if err != nil {
		return reference{}, fmt.Errorf("%s: approximate LL(2) rejects generated input: %w", name, err)
	}
	tree := ll.String()
	if tree != ap.String() {
		return reference{}, fmt.Errorf("%s: LL(*) and approximate LL(2) trees differ", name)
	}
	if pegMode {
		res := g.AnalysisResult()
		pp := peg.New(res.Grammar, peg.Options{Memoize: true})
		if _, err := pp.ParseTokens(rule, runtime.NewTokenStream(lexrt.New(res.Machine.Lex, input))); err != nil {
			return reference{}, fmt.Errorf("%s: PEG baseline rejects generated input: %w", name, err)
		}
	}
	return reference{tree: tree, digest: digest(ll), lines: strings.Count(input, "\n")}, nil
}

// digest hashes a parse tree's shape and token texts without rendering
// it, so timed outputs can be checked without allocating.
func digest(n *interp.Node) uint64 {
	h := fnv.New64a()
	var walk func(*interp.Node)
	buf := make([]byte, 0, 64)
	walk = func(n *interp.Node) {
		if n.Token != nil {
			buf = append(buf[:0], 't')
			buf = append(buf, n.Token.Text...)
			buf = append(buf, 0)
			h.Write(buf)
			return
		}
		buf = append(buf[:0], '(')
		buf = append(buf, n.Rule...)
		buf = append(buf, 0)
		h.Write(buf)
		for _, c := range n.Children {
			walk(c)
		}
		buf = append(buf[:0], ')')
		h.Write(buf)
	}
	if n != nil {
		walk(n)
	}
	return h.Sum64()
}
