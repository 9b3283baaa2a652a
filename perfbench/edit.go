package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"llstar"
	"llstar/internal/lexrt"
	"llstar/internal/token"
)

// jsonGrammar and jsonDoc reproduce the document of llstar's
// BenchmarkIncrementalEdit: a flat LL(1) JSON array of 10k elements,
// about 240k tokens.
const jsonGrammar = `
grammar StreamJSON;
value : obj | arr | STRING | NUMBER | 'true' | 'false' | 'null' ;
obj : '{' (pair (',' pair)*)? '}' ;
pair : STRING ':' value ;
arr : '[' (value (',' value)*)? ']' ;
STRING : '"' (~('"'|'\\') | '\\' .)* '"' ;
NUMBER : ('-')? ('0'..'9')+ ('.' ('0'..'9')+)? (('e'|'E') ('+'|'-')? ('0'..'9')+)? ;
WS : (' '|'\t'|'\r'|'\n')+ { skip(); } ;
`

const jsonElements = 10000

func jsonDoc(n int) string {
	var b strings.Builder
	b.Grow(n * 84)
	b.WriteString("[\n")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `  {"id": %d, "name": "item%d", "ok": true, "vals": [%d, %d.5, null]}`, i, i, i*2, i)
	}
	b.WriteString("\n]\n")
	return b.String()
}

// docSpec is one session document: the JSON document (LL(1)), a
// Java1.5 file (PEG mode, memoized speculation) and a C# file
// (syntactic predicates).
type docSpec struct {
	name    string
	file    string
	src     string
	rule    string
	pegMode bool
	text    string
}

func docSpecs(specs []gspec, seed int64) []docSpec {
	docs := []docSpec{{name: "json", file: "streamjson.g", src: jsonGrammar, rule: "value", text: jsonDoc(jsonElements)}}
	for _, g := range specs {
		if g.name == "java15" || g.name == "csharp" {
			docs = append(docs, docSpec{name: g.name, file: g.w.File, src: g.src, rule: g.w.Start,
				pegMode: g.w.Mode == "PEG", text: g.w.Input(seed, batchLines)})
		}
	}
	return docs
}

// openDoc loads a document's grammar and opens an incremental session
// on it.
func openDoc(d docSpec) (*llstar.Grammar, *llstar.Session, error) {
	g, err := llstar.LoadWith(d.file, d.src, llstar.LoadOptions{})
	if err != nil {
		return nil, nil, err
	}
	s, err := g.NewSession(llstar.WithIncremental(), llstar.WithStartRule(d.rule))
	if err != nil {
		return nil, nil, err
	}
	const feed = 64 << 10
	for i := 0; i < len(d.text); i += feed {
		if err := s.Feed([]byte(d.text[i:min(i+feed, len(d.text))])); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	if err := s.Finish(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", d.name, err)
	}
	return g, s, nil
}

// genEdits builds a seeded replay of n single-token edits on text. The
// edits come in pairs, a change and its undo, so the text is back to
// the original after every second edit and every edit leaves it valid.
// The pairs cycle through three kinds, so every run applies them in
// the same proportion: replace a number's digits and rename an
// identifier or string (both keep the token count), then insert and
// delete tokens: '~' before an integer literal in Java and C#, "0, " at
// the start of a non-empty JSON array.
func genEdits(g *llstar.Grammar, text string, seed int64, n int) ([]llstar.Edit, error) {
	lx := lexrt.New(g.AnalysisResult().Machine.Lex, text)
	var nums, ints, words, opens []token.Token
	var prev token.Token
	for {
		t, err := lx.NextToken()
		if err != nil {
			return nil, err
		}
		if t.IsEOF() {
			break
		}
		switch g.TokenName(int(t.Type)) {
		case "NUMBER":
			nums = append(nums, t)
		case "INTLIT":
			nums = append(nums, t)
			ints = append(ints, t)
		case "ID", "STRING":
			words = append(words, t)
		}
		if prev.Text == "[" && t.Text != "]" {
			opens = append(opens, prev)
		}
		prev = t
	}
	if len(nums) == 0 || len(words) == 0 {
		return nil, fmt.Errorf("document has no editable tokens")
	}
	// Sites follow a golden-ratio sequence from a seeded start, one per
	// kind: every prefix of it covers the document evenly, so a run of
	// any length sees the same spread of positions whatever the seed.
	r := rand.New(rand.NewSource(seed))
	start := [3]float64{r.Float64(), r.Float64(), r.Float64()}
	pick := func(cands []token.Token, k, p int) token.Token {
		u := math.Mod(start[k]+float64(p)*0.6180339887498949, 1)
		return cands[int(u*float64(len(cands)))]
	}
	edits := make([]llstar.Edit, 0, n)
	for pair := 0; len(edits) < n; pair++ {
		var off int
		var old, repl string
		k, p := pair%3, pair/3
		switch {
		case k == 0:
			t := pick(nums, k, p)
			digits := len(t.Text) - len(strings.TrimLeft(t.Text, "0123456789"))
			if digits == 0 {
				continue
			}
			for repl = t.Text[:digits]; repl == t.Text[:digits]; {
				repl = strconv.Itoa(r.Intn(100000))
			}
			off, old = t.Off, t.Text[:digits]
		case k == 1:
			t := pick(words, k, p)
			// Appending a digit keeps an identifier an identifier (no
			// keyword contains one) and a string a string.
			cut := len(t.Text)
			if strings.HasPrefix(t.Text, `"`) {
				cut--
			}
			off, old, repl = t.Off+cut, "", strconv.Itoa(r.Intn(10))
		case len(ints) > 0:
			off, old, repl = pick(ints, k, p).Off, "", "~"
		case len(opens) > 0:
			off, old, repl = pick(opens, k, p).Off+1, "", "0, "
		default:
			return nil, fmt.Errorf("document has no place to insert a token")
		}
		edits = append(edits,
			llstar.Edit{Offset: off, OldLen: len(old), NewText: repl},
			llstar.Edit{Offset: off, OldLen: len(repl), NewText: old})
	}
	return edits, nil
}

// editDoc is one open session with its replay.
type editDoc struct {
	spec  docSpec
	g     *llstar.Grammar
	s     *llstar.Session
	lines int
	edits []llstar.Edit
	next  int
	since int // edits since the last checkpoint
}

// apply runs the doc's next edit and returns its latency.
func (d *editDoc) apply() (time.Duration, error) {
	e := d.edits[d.next%len(d.edits)]
	d.next++
	d.since++
	t0 := time.Now()
	err := d.s.Edit(e)
	dt := time.Since(t0)
	if err != nil {
		return dt, fmt.Errorf("%s: edit %d %+v: %w", d.spec.name, d.next-1, e, err)
	}
	return dt, nil
}

// checkpoint compares the session tree with a fresh batch parse of the
// session's text, and the text with the original after a whole pair.
func (d *editDoc) checkpoint() error {
	d.since = 0
	text := string(d.s.Text())
	if d.next%2 == 0 && text != d.spec.text {
		return fmt.Errorf("%s: text after %d edits differs from the original", d.spec.name, d.next)
	}
	fresh, err := d.g.NewParser(llstar.WithTree()).Parse(d.spec.rule, text)
	if err != nil {
		return fmt.Errorf("%s: fresh parse after %d edits: %w", d.spec.name, d.next, err)
	}
	if digest(d.s.Tree()) != digest(fresh) {
		return fmt.Errorf("%s: session tree after %d edits differs from a fresh parse", d.spec.name, d.next)
	}
	return nil
}

// editEnv is the session-edit workload.
type editEnv struct {
	seed int64
	docs []docSpec
	open []*editDoc
}

const (
	editReplay      = 4096 // edits per document before the replay repeats
	checkpointEvery = 64   // edits per document between tree checks
	editChunk       = 108  // edits per throughput chunk: six kind cycles on each of three documents
)

func newEditEnv(specs []gspec, seed int64) *editEnv {
	return &editEnv{seed: seed, docs: docSpecs(specs, seed)}
}

// setup loads the three grammars and opens a session on each document.
func (e *editEnv) setup() error {
	e.open = e.open[:0]
	for _, d := range e.docs {
		g, s, err := openDoc(d)
		if err != nil {
			return err
		}
		e.open = append(e.open, &editDoc{spec: d, g: g, s: s, lines: strings.Count(d.text, "\n")})
	}
	return nil
}

func (e *editEnv) close() {
	for _, d := range e.open {
		d.s.Close()
	}
	e.open = nil
}

func (e *editEnv) check() error {
	for i, d := range e.open {
		if _, err := oracle(d.g, d.spec.name, d.spec.rule, d.spec.pegMode, d.spec.text); err != nil {
			return err
		}
		edits, err := genEdits(d.g, d.spec.text, e.seed+int64(i), editReplay)
		if err != nil {
			return fmt.Errorf("%s: %w", d.spec.name, err)
		}
		d.edits = edits
		if err := d.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// loop applies edits round-robin over the documents for d, checking
// each document every checkpointEvery edits (untimed) and at the end.
func (e *editEnv) loop(d time.Duration, tr *tracer) *loopStats {
	ls := &loopStats{}
	var c chunk
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		doc := e.open[i%len(e.open)]
		ls.attempted++
		t0 := time.Now()
		dt, err := doc.apply()
		if err != nil {
			ls.fail(err)
		} else {
			tr.add(0, "stream.edit", fmt.Sprintf("%s/%d", doc.spec.name, doc.next-1), 0, t0, t0.Add(dt))
			ls.lat = append(ls.lat, dt)
			c.ops++
			c.lines += doc.lines
			c.busy += dt
		}
		if c.ops >= editChunk {
			ls.chunks = append(ls.chunks, c)
			c = chunk{}
		}
		if doc.since >= checkpointEvery && doc.next%2 == 0 {
			if err := doc.checkpoint(); err != nil {
				ls.fail(err)
			}
		}
	}
	for _, doc := range e.open {
		if err := doc.checkpoint(); err != nil {
			ls.fail(err)
		}
	}
	return ls
}
