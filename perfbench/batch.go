package main

import (
	"fmt"
	"time"

	"llstar"
)

// batchEnv is the parse-batch workload: one goroutine parses 2000-line
// inputs of the six grammars round-robin through the library with
// WithTree() only, so no stats, metrics or coverage are collected.
type batchEnv struct {
	specs   []gspec
	inputs  [][]string
	gs      []*llstar.Grammar
	parsers []*llstar.Parser
	refs    [][]reference
}

func newBatchEnv(specs []gspec, seed int64) *batchEnv {
	e := &batchEnv{specs: specs}
	for _, g := range specs {
		e.inputs = append(e.inputs, genInputs(g, seed, batchLines, batchVariants))
	}
	return e
}

// setup loads and analyzes every grammar cold.
func (e *batchEnv) setup() error {
	e.gs, e.parsers = e.gs[:0], e.parsers[:0]
	for _, g := range e.specs {
		gr, err := llstar.LoadWith(g.w.File, g.src, llstar.LoadOptions{})
		if err != nil {
			return err
		}
		e.gs = append(e.gs, gr)
		e.parsers = append(e.parsers, gr.NewParser(llstar.WithTree()))
	}
	return nil
}

func (e *batchEnv) close() { e.gs, e.parsers = nil, nil }

func (e *batchEnv) check() error {
	e.refs = make([][]reference, len(e.specs))
	for i, g := range e.specs {
		for _, in := range e.inputs[i] {
			ref, err := oracle(e.gs[i], g.name, g.w.Start, g.w.Mode == "PEG", in)
			if err != nil {
				return err
			}
			e.refs[i] = append(e.refs[i], ref)
		}
	}
	// Warm-up pass through the timed parsers.
	var ls loopStats
	e.cycle(&ls, nil, 0)
	if ls.failed > 0 {
		return fmt.Errorf("warm-up: %w", ls.firstErr)
	}
	return nil
}

// cycle parses every input once and returns the busy time.
func (e *batchEnv) cycle(ls *loopStats, tr *tracer, n int) chunk {
	var c chunk
	for v := 0; v < batchVariants; v++ {
		for i, g := range e.specs {
			ls.attempted++
			t0 := time.Now()
			tree, err := e.parsers[i].Parse(g.w.Start, e.inputs[i][v])
			t1 := time.Now()
			if err == nil && digest(tree) != e.refs[i][v].digest {
				err = fmt.Errorf("%s: tree differs from the reference", g.name)
			}
			if err != nil {
				ls.fail(err)
				continue
			}
			tr.add(0, "interp.parse_tree", fmt.Sprintf("cycle%d/%s/%d", n, g.name, v), 0, t0, t1)
			ls.lat = append(ls.lat, t1.Sub(t0))
			c.ops++
			c.lines += e.refs[i][v].lines
			c.busy += t1.Sub(t0)
		}
	}
	return c
}

// loop repeats whole cycles for d; each cycle is one throughput chunk.
func (e *batchEnv) loop(d time.Duration, tr *tracer) *loopStats {
	ls := &loopStats{}
	start := time.Now()
	for n := 0; time.Since(start) < d; n++ {
		ls.chunks = append(ls.chunks, e.cycle(ls, tr, n))
	}
	return ls
}
