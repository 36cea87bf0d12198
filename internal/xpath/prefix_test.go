package xpath

import (
	"fmt"
	"strings"
	"testing"
)

func TestParsePrefix(t *testing.T) {
	dot := &PathExpr{Relative: true, Dot: true}
	bidder := MustParse("bidder")
	bidder.Relative = true
	xquery := func(name string) (*PathExpr, error) {
		switch name {
		case "i":
			return dot, nil
		case "b":
			return bidder, nil
		}
		return nil, fmt.Errorf("unknown variable $%s", name)
	}
	root := func(string) (*PathExpr, error) { return &PathExpr{}, nil }
	keywords := []string{"for", "where", "return"}

	cases := []struct {
		name string
		src  string // the expression starts at the first '@@'
		cond bool
		host Host
		want string // rendering, "" for a nil expression, "error" for an error
		rest string // the source after the expression
	}{
		{"path ends at a keyword", `in collection("c")@@/a/b[c > 1] where $i`, false, Host{Keywords: keywords}, "/a/b[c > 1]", " where $i"},
		{"keyword inside brackets is a name", `@@/a[where = 1]/b return`, false, Host{Keywords: keywords}, "/a[where = 1]/b", " return"},
		{"keyword step is an error", `@@/a/where`, false, Host{Keywords: keywords}, "error", ""},
		{"no path starts here", `collection("c")@@ return $i`, false, Host{Keywords: keywords}, "", " return $i"},
		{"binding after a variable", `for $x in @@$b/increase[. > 1] where`, false, Host{Var: xquery, Keywords: keywords}, "bidder/increase[. > 1]", " where"},
		{"binding continues without a slash", `@@$b date return`, false, Host{Var: xquery, Keywords: keywords}, "bidder/date", " return"},
		{"condition ends at return", `where @@$i/q > 5 and contains($b/n, "x") return $i`, true, Host{Var: xquery}, `(q > 5 and contains(bidder/n, "x"))`, " return $i"},
		{"condition ends at a comma", `(@@$i//q, $i/r)`, true, Host{Var: xquery}, ".//q", ", $i/r)"},
		{"condition ends at a brace", `<r>{@@$i/q}</r>`, true, Host{Var: xquery}, "q", "}</r>"},
		{"condition paths take no predicates", `@@$i/q[1] > 5`, true, Host{Var: xquery}, "error", ""},
		{"condition paths are variable paths", `@@q > 5`, true, Host{Var: xquery}, "error", ""},
		{"unknown variable", `@@$z/q`, true, Host{Var: xquery}, "error", ""},
		{"variables are not allowed in brackets", `@@$i/a[$b]`, false, Host{Var: xquery}, "error", ""},
		{"document root", `@@$d/a[b = "x"]`, false, Host{Var: root}, `/a[b = "x"]`, ""},
		{"document root, slash omitted", `@@$d a/b`, false, Host{Var: root}, "/a/b", ""},
		{"document root, no variable", `@@//a`, false, Host{Var: root}, "//a", ""},
		{"document root, slash apart from the name", `@@$d /a`, false, Host{Var: root}, "error", ""},
		{"document root needs a path", `@@$d`, false, Host{Var: root}, "error", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off := strings.Index(tc.src, "@@")
			src := tc.src[:off] + tc.src[off+2:]
			e, end, err := ParsePrefix(src, off, tc.cond, tc.host)
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
