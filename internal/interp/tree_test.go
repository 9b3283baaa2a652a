package interp

import (
	"strings"
	"testing"

	"llstar/internal/token"
)

// nestedString is the per-subtree rendering String used to do, kept as
// the reference its one-pass output must match byte for byte.
func nestedString(n *Node) string {
	if n == nil {
		return "nil"
	}
	if n.Token != nil {
		return n.Token.Text
	}
	s := "(" + n.Rule
	for _, c := range n.Children {
		s += " " + nestedString(c)
	}
	return s + ")"
}

const nestGrammar = `
grammar Nest;
s : e (',' e)* ;
e : '(' e ')' | ID '=' e | ID ;
ID : ('a'..'z')+ ;
WS : (' ')+ { skip(); } ;
`

func TestTreeStringOnePass(t *testing.T) {
	p := New(analyzeSrc(t, nestGrammar), Options{BuildTree: true})
	deep := strings.Repeat("(", 60) + "a = b" + strings.Repeat(")", 60)
	tree, err := p.ParseString("s", deep+", x, (y = z)")
	if err != nil {
		t.Fatal(err)
	}
	leaf := &Node{Token: &token.Token{Text: "x"}}
	for _, n := range []*Node{
		tree,
		nil,
		leaf,
		{Rule: "r"},
		{Rule: "r", Children: []*Node{nil, leaf, {Rule: "q", Children: []*Node{leaf}}}},
	} {
		if got, want := n.String(), nestedString(n); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
