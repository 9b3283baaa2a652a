// Package lexrt is the lexer engine: it runs a grammar's lexer DFA (the
// determinized character-level ATN, atn.LexMachine.DFA) with
// maximal-munch semantics — longest match wins, and among rules matching
// the same longest prefix the one declared first (with implicit literals
// outranking named rules) wins. Matches from rules carrying a skip()
// action are discarded; channel(HIDDEN) rules are emitted off the
// default channel.
//
// The DFA's dense tables are built once per grammar, when its first
// lexer is created, and shared read-only by every lexer over it, so
// lexing costs one class lookup and one table index per character (the
// same tables codegen emits for generated parsers).
//
// There is one driver: ChunkLexer (chunk.go) tokenizes byte chunks
// arriving incrementally, suspending mid-token at buffer boundaries, and
// Lexer is that driver handed a whole in-memory string at once.
package lexrt

import (
	"llstar/internal/atn"
	"llstar/internal/runtime"
	"llstar/internal/token"
)

// Lexer tokenizes an input string using a LexMachine. It implements
// runtime.TokenSource.
type Lexer struct {
	c *ChunkLexer
}

var _ runtime.TokenSource = (*Lexer)(nil)

// New returns a lexer over input.
func New(lm *atn.LexMachine, input string) *Lexer {
	c := NewChunk(lm)
	c.runes = make([]rune, 0, len(input))
	c.sizes = make([]uint8, 0, len(input))
	c.buf = []byte(input)
	c.Finish()
	c.buf = nil
	return &Lexer{c}
}

// NextToken implements runtime.TokenSource: it returns the next token on
// any channel (the token stream filters channels), an EOF token at end of
// input (repeatedly), or an error: a *runtime.LexError, or the lexer
// DFA's build error.
func (l *Lexer) NextToken() (token.Token, error) {
	tok, _, err := l.c.Next()
	return tok, err
}
