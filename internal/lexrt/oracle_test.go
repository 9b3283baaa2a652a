package lexrt_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llstar/internal/atn"
	"llstar/internal/bench"
	"llstar/internal/grammar"
	"llstar/internal/lexrt"
	"llstar/internal/meta"
	"llstar/internal/token"
)

// oracleRepoInputs are the lexer oracle's inputs for the repository
// grammars under grammars/: valid UTF-8 that lexes without error.
var oracleRepoInputs = []struct{ file, input string }{
	{"calc.g", "1 + 23*(456 - 7) / 89\n\t(((0)))*12345678901234567890\r\n" +
		strings.Repeat("(3-4)*5/6 + 78\n", 20)},
	{"figure1.g", "unsigned unsigned int x\ny = 42\nunsignedint Unsigned intx\n" +
		strings.Repeat("unsigned T v\nint Q\nzz = 007\n", 15)},
	{"figure2.g", "- - abc\n--x 12 -- -- 3\n" + strings.Repeat("- - - 9 - q\n", 20)},
	{"json.g", `{"k\u00e9y": [1.5e-3, true, "v\\\"al"], "n": null}` + "\n" +
		`[-0, 10.25E+7, 3e9, "caf` + "\u00e9 \u4e16\u754c \U0001F600" + `", {}, [], false]` + "\n" +
		strings.Repeat(`{"a": [1, 2, {"b": "c\td"}], "e": -12.5e-1}`+"\n", 15)},
}

// oracleBenchLines sizes the seeded benchmark-grammar inputs.
const oracleBenchLines = 200

// TestLexOracle locks the batch lexer's token stream (type, text,
// line:col, byte offset, channel) over the six benchmark grammars'
// seeded inputs and the repository grammars against
// testdata/lex_golden.txt, and requires the chunk lexer, fed in 7-byte
// chunks, to produce the same stream. Regenerate with UPDATE_GOLDEN=1
// only for an intended change to what the lexer emits.
func TestLexOracle(t *testing.T) {
	var out bytes.Buffer
	for _, w := range bench.Workloads {
		src, err := w.GrammarText()
		if err != nil {
			t.Fatal(err)
		}
		oracleLex(t, &out, w.File, src, w.Input(1, oracleBenchLines))
	}
	for _, in := range oracleRepoInputs {
		src, err := os.ReadFile(filepath.Join("..", "..", "grammars", in.file))
		if err != nil {
			t.Fatal(err)
		}
		oracleLex(t, &out, in.file, string(src), in.input)
	}

	golden := filepath.Join("testdata", "lex_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, out.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", golden, len(gl), len(wl))
	}
}

// oracleLex appends one header line for the grammar and one line per
// token (EOF included) to out, failing if the chunk lexer disagrees.
func oracleLex(t *testing.T, out *bytes.Buffer, file, src, input string) {
	t.Helper()
	g, err := meta.Parse(file, src)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if err := grammar.FirstFatal(grammar.Validate(g)); err != nil && file != "calc.g" {
		// calc.g is left-recursive before rewriting; its lexer half is sound.
		t.Fatalf("%s: %v", file, err)
	}
	m, err := atn.Build(g)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	line := func(tok token.Token) string {
		return fmt.Sprintf("%s %q %d:%d off=%d ch=%d", g.Vocab.Name(tok.Type), tok.Text,
			tok.Pos.Line, tok.Pos.Col, tok.Off, tok.Channel)
	}

	var batch []string
	lx := lexrt.New(m.Lex, input)
	for {
		tok, err := lx.NextToken()
		if err != nil {
			t.Fatalf("%s: batch lex: %v", file, err)
		}
		batch = append(batch, line(tok))
		if tok.IsEOF() {
			break
		}
	}

	var chunked []string
	c := lexrt.NewChunk(m.Lex)
	drain := func() {
		for {
			tok, ok, err := c.Next()
			if err != nil {
				t.Fatalf("%s: chunk lex: %v", file, err)
			}
			if !ok {
				return
			}
			chunked = append(chunked, line(tok))
			if tok.IsEOF() {
				return
			}
		}
	}
	for i := 0; i < len(input); i += 7 {
		c.Feed([]byte(input[i:min(i+7, len(input))]))
		drain()
	}
	c.Finish()
	drain()
	if strings.Join(chunked, "\n") != strings.Join(batch, "\n") {
		t.Fatalf("%s: chunk lexer stream differs from the batch lexer's", file)
	}

	fmt.Fprintf(out, "== %s: %d bytes, %d tokens\n", file, len(input), len(batch))
	for _, l := range batch {
		out.WriteString(l)
		out.WriteByte('\n')
	}
}
