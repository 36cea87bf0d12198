package xpath

import (
	"fmt"
	"strings"
	"testing"
)

// xquery resolves variables as an XQuery binding does: $i is the context
// node and $b its bidder children.
func xquery(name string) (*PathExpr, error) {
	switch name {
	case "i":
		return &PathExpr{Relative: true, Dot: true}, nil
	case "b":
		return MustParse("bidder"), nil
	}
	return nil, fmt.Errorf("unknown variable $%s", name)
}

// root resolves every variable to the document root, as SQL/XML's
// PASSING variable does.
func root(string) (*PathExpr, error) { return &PathExpr{}, nil }

func TestParsePrefix(t *testing.T) {
	runPrefixCases(t, []prefixCase{
		{"path ends at a keyword", `in collection("c")@@/a/b[c > 1] where $i`, false, nil, "/a/b[c > 1]", " where $i"},
		{"keyword inside brackets is a name", `@@/a[where = 1]/b return`, false, nil, "/a[where = 1]/b", " return"},
		// Clause keywords are names like any other: a step may be named by one.
		{"keyword step is an error", `@@/a/where`, false, nil, "/a/where", ""},
		{"no path starts here", `collection("c")@@ return $i`, false, nil, "", " return $i"},
		{"binding after a variable", `for $x in @@$b/increase[. > 1] where`, false, xquery, "bidder/increase[. > 1]", " where"},
		// A variable followed by a name stands alone; the name is not a step.
		{"binding continues without a slash", `@@$b date return`, false, xquery, "bidder", " date return"},
		{"condition ends at return", `where @@$i/q > 5 and contains($b/n, "x") return $i`, true, xquery, `(q > 5 and contains(bidder/n, "x"))`, " return $i"},
		{"condition ends at a comma", `(@@$i//q, $i/r)`, true, xquery, ".//q", ", $i/r)"},
		{"condition ends at a brace", `<r>{@@$i/q}</r>`, true, xquery, "q", "}</r>"},
		{"condition paths take no predicates", `@@$i/q[1] > 5`, true, xquery, "error", ""},
		{"condition paths are variable paths", `@@q > 5`, true, xquery, "error", ""},
		{"unknown variable", `@@$z/q`, true, xquery, "error", ""},
		{"variables are not allowed in brackets", `@@$i/a[$b]`, false, xquery, "error", ""},
		{"document root", `@@$d/a[b = "x"]`, false, root, `/a[b = "x"]`, ""},
		// After the document root the path starts with / or //.
		{"document root, slash omitted", `@@$d a/b`, false, root, "error", ""},
		{"document root, no variable", `@@//a`, false, root, "//a", ""},
		// Blanks may come between a variable and its path.
		{"document root, slash apart from the name", `@@$d /a`, false, root, "/a", ""},
		{"document root needs a path", `@@$d`, false, root, "error", ""},
	})
}

// TestVariablesFollowXPath pins one rule for the text after a variable,
// the same in bindings, conditions and SQL/XML: `$v` stands alone or is
// followed by a path that starts with / or //, blanks allowed between
// them, and a path without a variable starts with / or //.
func TestVariablesFollowXPath(t *testing.T) {
	runPrefixCases(t, []prefixCase{
		{"a name after a variable is not a step", `@@$i bidder`, false, xquery, ".", " bidder"},
		{"a variable path takes no dot step", `@@$i/.`, false, xquery, "error", ""},
		{"a variable path takes no empty step", `@@$i/ /b`, false, xquery, "error", ""},
		{"a path after the document root starts with a slash", `@@$d a/b`, false, root, "error", ""},
		{"a path without a variable starts with a slash", `@@a/b`, false, root, "error", ""},
		{"a binding path without a variable starts with a slash", `collection("c")@@a/b`, false, nil, "", "a/b"},
		{"a binding path without a variable is not dot-led", `collection("c") @@./a`, false, nil, "", "./a"},
		{"blanks may follow the document root", `@@$d /a/b`, false, root, "/a/b", ""},
		{"blanks may follow a variable in a binding", `@@$i //b`, false, xquery, ".//b", ""},
		{"blanks may follow a variable in a condition", `@@$i /b > 1`, true, xquery, "b > 1", ""},
	})
}

type prefixCase struct {
	name string
	src  string // the expression starts at the first '@@'
	cond bool
	vars func(string) (*PathExpr, error)
	want string // rendering, "" for a nil expression, "error" for an error
	rest string // the source after the expression
}

func runPrefixCases(t *testing.T, cases []prefixCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off := strings.Index(tc.src, "@@")
			src := tc.src[:off] + tc.src[off+2:]
			e, end, err := ParsePrefix(src, off, tc.cond, tc.vars)
			switch {
			case tc.want == "error":
				if err == nil {
					t.Fatalf("parsed %v up to %d, want an error", e, end)
				}
				return
			case err != nil:
				t.Fatal(err)
			case tc.want == "" && e != nil:
				t.Fatalf("got %v, want no expression", e)
			case tc.want != "" && (e == nil || e.String() != tc.want):
				t.Fatalf("got %v, want %s", e, tc.want)
			}
			if src[end:] != tc.rest {
				t.Errorf("read up to %q, want the rest %q", src[:end], tc.rest)
			}
		})
	}
}
