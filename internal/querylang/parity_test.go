package querylang_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/querylang"
	"repro/internal/xpath"
)

var updateParity = flag.Bool("update", false, "rewrite the parse-parity golden file")

// TestParseParityGolden pins the parse of every query and path in a fixed
// corpus: the datagen XMark, TPoX and paper workloads at several seeds,
// every XQuery, SQL/XML and workload-line literal in the querylang,
// xpath, workload, core and advisor tests (the fuzz seeds included), and
// a list of edge spellings below. Each query is parsed as XQuery and as
// SQL/XML; each path literal of the xpath tests is parsed by xpath.Parse.
// The golden file holds the inputs and, for each, either "error" or the
// full rendered result (every path with its relative/dot flags, every
// predicate, every leg and its OR group). Error texts are not pinned,
// only that the input is rejected.
//
// The file was generated before the query languages shared one
// grammar and must not be regenerated (-update) by a change meant to
// keep the accepted language.
func TestParseParityGolden(t *testing.T) {
	path := filepath.Join("testdata", "parse_parity.golden")
	if *updateParity {
		var got bytes.Buffer
		got.WriteString("# parse-parity golden: kind quoted-input, then the rendered parse\n")
		for _, q := range parityQueries(t) {
			for _, kind := range []string{"xq", "sql"} {
				fmt.Fprintf(&got, "== %s %s\n%s", kind, strconv.Quote(q), renderParse(kind, q))
			}
		}
		for _, p := range parityPaths(t) {
			fmt.Fprintf(&got, "== path %s\n%s", strconv.Quote(p), renderParse("path", p))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var kind, input, want string
	n := 0
	check := func() {
		if kind == "" {
			return
		}
		n++
		if got := renderParse(kind, input); got != want {
			t.Errorf("%s %q:\ngot:\n%swant:\n%s", kind, input, got, want)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			check()
			k, quoted, _ := strings.Cut(line[3:], " ")
			in, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("bad golden input line %q: %v", line, err)
			}
			kind, input, want = k, in, ""
		default:
			want += line + "\n"
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	check()
	if n < 500 {
		t.Fatalf("golden holds %d inputs; the corpus should be far larger", n)
	}
}

// renderParse parses src as kind ("xq", "sql" or "path") and renders the
// result, or "error".
func renderParse(kind, src string) string {
	var sb strings.Builder
	if kind == "path" {
		e, err := xpath.Parse(src)
		if err != nil {
			return "error\n"
		}
		fmt.Fprintf(&sb, "path %s\n", dumpPath(e))
		return sb.String()
	}
	parse := querylang.ParseXQuery
	if kind == "sql" {
		parse = querylang.ParseSQLXML
	}
	q, err := parse(src)
	if err != nil {
		return "error\n"
	}
	fmt.Fprintf(&sb, "coll %q lang %s perdoc %v text-equal %v\n",
		q.Collection, q.Lang, q.PerDocument, q.Text == src)
	fmt.Fprintf(&sb, "binding %s\n", dumpPath(q.Binding))
	if q.Where != nil {
		fmt.Fprintf(&sb, "where %s\n", dumpBool(q.Where))
	}
	for _, p := range q.DocConds {
		fmt.Fprintf(&sb, "doccond %s\n", dumpPath(p))
	}
	for _, p := range q.Returns {
		fmt.Fprintf(&sb, "return %s\n", dumpPath(p))
	}
	for _, p := range q.DocReturns {
		fmt.Fprintf(&sb, "docreturn %s\n", dumpPath(p))
	}
	for _, l := range q.Legs() {
		fmt.Fprintf(&sb, "leg %s | group %d\n", l.String(), l.OrGroup)
	}
	return sb.String()
}

func dumpPath(p *xpath.PathExpr) string {
	if p == nil {
		return "<nil>"
	}
	var sb strings.Builder
	if p.Relative {
		sb.WriteString("R:")
	} else {
		sb.WriteString("A:")
	}
	if p.Dot {
		sb.WriteString(".")
	}
	for _, st := range p.Steps {
		fmt.Fprintf(&sb, "/%d:%d:%q", st.Axis, st.Kind, st.Name)
		for _, pr := range st.Preds {
			sb.WriteString("[" + dumpBool(pr) + "]")
		}
	}
	return sb.String()
}

func dumpBool(e xpath.BoolExpr) string {
	switch x := e.(type) {
	case *xpath.AndExpr:
		return "and(" + dumpBool(x.L) + ", " + dumpBool(x.R) + ")"
	case *xpath.OrExpr:
		return "or(" + dumpBool(x.L) + ", " + dumpBool(x.R) + ")"
	case *xpath.NotExpr:
		return "not(" + dumpBool(x.E) + ")"
	case *xpath.ExistsExpr:
		return "exists(" + dumpPath(x.Path) + ")"
	case *xpath.Comparison:
		return fmt.Sprintf("cmp(%s op%d type%d %q %s)", dumpPath(x.Path), x.Op, x.Value.Type,
			x.Value.S, strconv.FormatFloat(x.Value.F, 'g', -1, 64))
	}
	return fmt.Sprintf("<%T>", e)
}

// parityQueries is the query corpus: generated workloads, test literals
// and the edge spellings, deduplicated, in first-seen order.
func parityQueries(t *testing.T) []string {
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, e := range datagen.XMarkWorkload(30, seed).Queries {
			add(e.Query.Text)
		}
		for _, e := range datagen.TPoXWorkload(27, seed, 50).Queries {
			add(e.Query.Text)
		}
	}
	for _, e := range datagen.XMarkPaperWorkload().Queries {
		add(e.Query.Text)
	}
	for _, lit := range testLiterals(t, ".", "../xpath", "../workload", "../core", "../../advisor", "../../advisor/server") {
		var lines []string
		for _, line := range strings.Split(lit, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "q|") {
				lines = append(lines, strings.TrimSpace(line))
			}
		}
		if len(lines) > 0 {
			for _, line := range lines {
				_, rest, _ := strings.Cut(line, "|")
				_, q, _ := strings.Cut(rest, "|")
				add(q)
			}
			continue
		}
		low := strings.ToLower(lit)
		for _, marker := range []string{"for $", "let $", "select", "xmlexists", "xmlquery", "collection(", "doc("} {
			if strings.Contains(low, marker) {
				add(lit)
				break
			}
		}
	}
	for _, q := range parityEdgeQueries {
		add(q)
	}
	return out
}

// parityPaths is the path corpus: the xpath tests' literals (fuzz seeds
// included), the generated workloads' delete paths and edge spellings.
func parityPaths(t *testing.T) []string {
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, lit := range testLiterals(t, "../xpath") {
		if !strings.HasPrefix(strings.TrimSpace(lit), "<") && !strings.Contains(lit, "\n") {
			add(lit)
		}
	}
	add("/site/closed_auctions/closed_auction")
	add("/FIXML/Order")
	for _, p := range parityEdgePaths {
		add(p)
	}
	return out
}

// testLiterals returns every string literal of the _test.go files in the
// given package directories, in file and source order.
func testLiterals(t *testing.T, dirs ...string) []string {
	var out []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		for _, file := range files {
			if filepath.Base(file) == "parity_test.go" {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						out = append(out, s)
					}
				}
				return true
			})
		}
	}
	return out
}

// parityEdgeQueries are spellings at the borders of the accepted
// language: whitespace between path tokens, slashless and dotted
// variable continuations, clause keywords as step names, predicates on
// variable paths, literal typing and malformed input.
var parityEdgeQueries = []string{
	`for $i in collection("c")/a for $b in $i/ /b return $b`,
	`for $i in collection("c")/a for $b in $i/ //b return $b`,
	`for $i in collection("c")/a for $b in $i // b return $b`,
	`for $i in collection("c")/a for $b in $i b return $b`,
	`for $i in collection("c")/a for $b in $i b/c[d] return $b`,
	`for $i in collection("c")/a for $b in $i . return $b`,
	`for $i in collection("c")/a for $b in $i/. return $b`,
	`for $i in collection("c")/a for $b in $i/./b return $b`,
	`for $i in collection("c")/a for $b in $i ./b return $b`,
	`for $i in collection("c")/a for $b in $i .//b return $b`,
	`for $i in collection("c")/a for $b in $i//. return $b`,
	`for $i in collection("c")/a for $b in $i/.. return $b`,
	`for $i in collection("c")/a for $b in $i @x return $b`,
	`for $i in collection("c")/a for $b in $i * return $b`,
	`for $i in collection("c")/a for $b in $i text() return $b`,
	`for $i in collection("c")/a for $b in $i/b[c > 1] return $b`,
	`for $i in collection("c")/a for $b in $i/b[c > 1]/d[@e = "f"] where $b/g return $b/h`,
	`for $i in collection("c")/a for $b in $i/where return $b`,
	`for $i in collection("c")/a for $b in $i where $b return $b`,
	`for $i in collection("c")/a for $b in $i/ where $b return $b`,
	`for $i in collection("c")/a for $b in $i/b/ return $b`,
	`for $i in collection("c")/a for $b in $i/b c return $b`,
	`for $i in collection("c")/a for $b in $i/b() return $b`,
	`for $i in collection("c")/a for $b in $i/b) return $b`,
	`for $i in collection("c")/a for $b in $i/b] return $b`,
	`for $i in collection("c")/a for $b in $i/b[c]] return $b`,
	`for $i in collection("c")/a for $b in $i/b[c return $b`,
	`for $i in collection("c")/a for $b in $i/b[$i] return $b`,
	`for $i in collection("c")/a for $b in ($i/b) return $b`,
	`for $i in collection("c")/a for $b in $i/b and $i/c return $b`,
	`for $i in collection("c")/a for $b in $i/b = 1 return $b`,
	`for $i in collection("c")/a for $b in $j/b return $b`,
	`for $i in collection("c")/where return $i`,
	`for $i in collection("c")/a/@where return $i`,
	`for $i in collection("c")/a/for return $i`,
	`for $i in collection("c")/a/order return $i`,
	`for $i in collection("c")/a/return-x return $i`,
	`for $i in collection("c") return $i`,
	`for $i in collection("c") . return $i`,
	`for $i in collection("c") ./a return $i`,
	`for $i in collection("c") a/b return $i`,
	`for $i in collection("c") @a return $i`,
	`for $i in collection("c")//a[b/where = 1] return $i`,
	`for $i in collection("c")/a[for] return $i`,
	`for $i in collection("c")/a[$i] return $i`,
	`for $i in collection("c")/a[b > $x] return $i`,
	`for $i in collection("c")/a[b # 1] return $i`,
	`for $i in collection("c")/a#b return $i`,
	`for $i in collection("c")/a..b return $i`,
	`for $i in collection("c")/ /a return $i`,
	`for $i in collection("c")///a return $i`,
	`for $i in collection("c")/a/text() return $i`,
	`for $i in collection("c")/a/text ( ) return $i`,
	`for $i in collection("c")/a/text( return $i`,
	`for $i in collection("c")$i return $i`,
	`for $i in collection("c")(/a) return $i`,
	`for $i in collection("c")/a[b=1]]`,
	`for $i in collection("c")/a[ b = 1 ]/c where $i/d>1 return $i`,
	`for $i in collection("c")/a[b and (c or not(d))]/e[@f != 'g'] where $i/h < 3 or not(contains($i/k, "z")) return $i/m`,
	`for $i in collection("c")/a[b]where $i/c return $i`,
	`for $i in collection("c")/a where $i/ /b > 1 return $i`,
	`for $i in collection("c")/a where $i/ //b > 1 return $i`,
	`for $i in collection("c")/a where $i // b > 1 return $i`,
	`for $i in collection("c")/a where $i /b > 1 return $i`,
	`for $i in collection("c")/a where $i/ b > 1 return $i`,
	`for $i in collection("c")/a where $i/b/ c > 1 return $i`,
	`for $i in collection("c")/a where $i/b / /c > 1 return $i`,
	`for $i in collection("c")/a where $i///b > 1 return $i`,
	`for $i in collection("c")/a where $i b > 1 return $i`,
	`for $i in collection("c")/a where $i/. > 1 return $i`,
	`for $i in collection("c")/a where $i/./b > 1 return $i`,
	`for $i in collection("c")/a where $i . return $i`,
	`for $i in collection("c")/a where $i > 1 return $i`,
	`for $i in collection("c")/a where $i = "x" return $i`,
	`for $i in collection("c")/a where $i return $i`,
	`for $i in collection("c")/a where $i/b[c] return $i`,
	`for $i in collection("c")/a where $i/b[c] = 1 return $i`,
	`for $i in collection("c")/a where $i/b[c]/d return $i`,
	`for $i in collection("c")/a where $i/where = 1 return $i/return`,
	`for $i in collection("c")/a where $i/for and $i/let return $i/where`,
	`for $i in collection("c")/a where $i/b = $i/c return $i`,
	`for $i in collection("c")/a where not $i/b return $i`,
	`for $i in collection("c")/a where not($i/b) return $i`,
	`for $i in collection("c")/a where not() return $i`,
	`for $i in collection("c")/a where () return $i`,
	`for $i in collection("c")/a where (($i/b)) return $i`,
	`for $i in collection("c")/a where ($i/b return $i`,
	`for $i in collection("c")/a where contains(b, "x") return $i`,
	`for $i in collection("c")/a where contains(., "x") return $i`,
	`for $i in collection("c")/a where contains($i/b, 5) return $i`,
	`for $i in collection("c")/a where contains($i/b, "x" return $i`,
	`for $i in collection("c")/a where contains($i/b "x") return $i`,
	`for $i in collection("c")/a where contains($i, "x") return $i`,
	`for $i in collection("c")/a where contains($i/b[c], "x") return $i`,
	`for $i in collection("c")/a where contains() return $i`,
	`for $i in collection("c")/a where contains return $i`,
	`for $i in collection("c")/a where contains($i/b,"x")and $i/c return $i`,
	`for $i in collection("c")/a where ($i/b or $i/c) and $i/d != "2001-01-01" return $i`,
	`for $i in collection("c")/a where $i/b and $i/c or $i/d return $i`,
	`for $i in collection("c")/a where $i/b or $i/c and $i/d return $i`,
	`for $i in collection("c")/a where $i/b > 1 and not($i/c = 2 or $i/d) or contains($i/e, "f") return $i`,
	`for $i in collection("c")/a where $i/b = 1 and return $i`,
	`for $i in collection("c")/a where $i/b = 1 or return $i`,
	`for $i in collection("c")/a where $i/b order by $i return $i`,
	`for $i in collection("c")/a where $i/b >= "2001/01/02" return $i`,
	`for $i in collection("c")/a where $i/b = " 2001-01-02 " return $i`,
	`for $i in collection("c")/a where $i/b = "2001-01-02T10:11:12" return $i`,
	`for $i in collection("c")/a where $i/b = "2001-1-2" return $i`,
	`for $i in collection("c")/a where $i/b = "01/02/2001" return $i`,
	`for $i in collection("c")/a where $i/b = 'x"y' return $i`,
	`for $i in collection("c")/a where $i/b = "" return $i`,
	`for $i in collection("c")/a where $i/b = 1e3 return $i`,
	`for $i in collection("c")/a where $i/b = 1E-3 return $i`,
	`for $i in collection("c")/a where $i/b = -1.5 return $i`,
	`for $i in collection("c")/a where $i/b = 1e return $i`,
	`for $i in collection("c")/a where $i/b = 1.2.3 return $i`,
	`for $i in collection("c")/a where $i/b = .5 return $i`,
	`for $i in collection("c")/a where $i/b = - 1 return $i`,
	`for $i in collection("c")/a where $i/b > 1return $i`,
	`for $i in collection("c")/a where $i/b ! 1 return $i`,
	`for $i in collection("c")/a where $i/b !1 return $i`,
	`for $i in collection("c")/a where $i/b<5 return $i`,
	`for $i in collection("c")/a where $i/b<=5 return $i`,
	`for $i in collection("c")/a where $i/b=<5 return $i`,
	`for $i in collection("c")/a where $i/b == 5 return $i`,
	`for $i in collection("c")/a where $i/b = x return $i`,
	`for $i in collection("c")/a where $i/b # 1 return $i`,
	`for $i in collection("c")/a where $i/b > "open return $i`,
	`for $i in collection("c")/a where $i/text() = 1 return $i/@*`,
	`for $i in collection("c")/a where $i/text ( ) = 1 return $i/text ( )`,
	`for $i in collection("c")/a where $i/text( = 1 return $i`,
	`for $i in collection("c")/a where $i/text() /b = 1 return $i`,
	`for $i in collection("c")/a where $i/@@b return $i`,
	`for $i in collection("c")/a where $i/@ b return $i`,
	`for $i in collection("c")/a where $i/@ return $i`,
	`for $i in collection("c")/a where $i/@/b return $i`,
	`for $i in collection("c")/a where $i/* > 1 return $i/@*`,
	`for $i in collection("c")/a where $i/@* = 1 return $i`,
	`for $i in collection("c")/a where $i//@x = 1 return $i`,
	`for $i in collection("c")/a where $i/@x/y = 1 return $i`,
	`for $i in collection("c")/a where $i/b-1 > 2 return $i`,
	`for $i in collection("c")/a where $i/1b > 2 return $i`,
	`for $i in collection("c")/a where $i/-b > 2 return $i`,
	`for $i in collection("c")/a where $i/b:c > 1 return $i`,
	`for $i in collection("c")/a where $i/b.c > 1 return $i`,
	`for $i in collection("c")/a where $i.b > 1 return $i`,
	`for $i in collection("c")/a where $j/b return $i`,
	`for $i in collection("c")/a where $i/b > 1 return $`,
	`for $i in collection("c")/a where $i/b > 1 return $i/c:`,
	`for $i in collection("c")/a where $i/b > 1 return $i/c]`,
	`for $i in collection("c")/a return ($i/b, $i/ /c)`,
	`for $i in collection("c")/a return ($i/b, $i c)`,
	`for $i in collection("c")/a return (($i/b))`,
	`for $i in collection("c")/a return ($i/b,)`,
	`for $i in collection("c")/a return ()`,
	`for $i in collection("c")/a return ($i/b`,
	`for $i in collection("c")/a return $i b`,
	`for $i in collection("c")/a return $i, $i/b`,
	`for $i in collection("c")/a return $i/.`,
	`for $i in collection("c")/a return $i/b[1]`,
	`for $i in collection("c")/a return $i/b = 1`,
	`for $i in collection("c")/a return $i/b and $i/c`,
	`for $i in collection("c")/a return not($i/b)`,
	`for $i in collection("c")/a return contains($i/b, "x")`,
	`for $i in collection("c")/a return count($i/b)`,
	`for $i in collection("c")/a return count ( $i / b )`,
	`for $i in collection("c")/a return count($i/b[c])`,
	`for $i in collection("c")/a return count(b)`,
	`for $i in collection("c")/a return count($i/b`,
	`for $i in collection("c")/a return data($i/c)`,
	`for $i in collection("c")/a return sum($i/c)`,
	`for $i in collection("c")/a return avg($i//c)`,
	`for $i in collection("c")/a return string($i)`,
	`for $i in collection("c")/a return "x"`,
	`for $i in collection("c")/a return 5`,
	`for $i in collection("c")/a return <r>{$i/b}{"x"}</r>`,
	`for $i in collection("c")/a return <r a="{x">{$i/b}</r>`,
	`for $i in collection("c")/a return <r>{count($i/b)}</r>`,
	`for $i in collection("c")/a return <r>{$i/b</r>`,
	`for $i in collection("c")/a return <r>{$i/b}`,
	`for $i in collection("c")/a return <r>{}</r>`,
	`for $i in collection("c")/a return <r>{$i/b[c]}</r>`,
	`for $i in collection("c")/a return <r>{$i / b}{$i//c}</r>`,
	`for $i in collection("c")/a return <r>{$i/b}</r> extra`,
	`for $i in collection("c")/a let $j := $i/b where $j > 1 return $j`,
	`for $i in collection("c")/a let $j := $i b return $j`,
	`for $i in collection("c")/a let $j := $i/b[c = 1] return $j`,
	`for $i in collection("c")/a let $j := collection("d") return $j`,
	`for $i in collection("c")/a let $j = $i/b return $j`,
	`for $i in collection("c")/a let $j := $i/b let $k := $j where $k = 1 return $k`,
	`for $i in collection("c")/a for $j in $i/b for $k in $j/c where $k/d > 1 return ($i/e, $j/f, $k/g)`,
	`for $i in collection("c")/a for $j in $i where $j/b return $j`,
	`for $i in collection("c") for $j in $i/a return $j`,
	`for $i in collection("c")/a for $i in $i/b return $i`,
	`for $i in collection("c")/a for $j in collection("c")/b return $j`,
	`for $i in doc("c")/a return $i`,
	`for $i in doc('c')//a return $i`,
	`for $i in collection(c)/a return $i`,
	`for $i in collection("c"/a return $i`,
	`for $i in collection "c"/a return $i`,
	`let $x := $y/a for $i in collection("c") return $i`,
	`where $i/a return $i`,
	`return $i`,
	`for i in collection("c") return $i`,
	`for $i collection("c") return $i`,
	`for $i in collection("c")/a`,
	`for $i in collection("c")/a where $i/b`,
	"for $i in collection(\"c\")/a\nwhere $i/b\t> 1\r\nreturn\t$i/c",
	`  for   $i   in   collection ( "c" ) / a / b [ c > 1 ]   where   $i / d   =   "x"   return   ( $i / e , $i / f )  `,
	`for $é in collection("c")/é where $é/ü = "ö" return $é`,
	`for $i-1 in collection("c")/a where $i-1/b return $i-1`,
	`for $i.x in collection("c")/a where $i.x/b return $i.x`,
	`for $i in collection("c")/a where $i/b = 1 return $i/b {`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d /a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/ /a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d //a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/ //a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d  a/b' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$ a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$/a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d ' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d .' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/.' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d ./a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d./a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('.' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('./a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('.//a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS(' a/b ' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS(' /a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('//a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('/ /a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('a[b > 1]' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('@a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('*' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('text()' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d[1]' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d@a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d*' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d.x/a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d-1/a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$dtext()' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/text()' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a/where' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[$x]' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b = "x"]' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a)' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$$d/a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d$e/a' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a and $d/b' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a = 1' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a, $d/b' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a/..' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a/.' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('  ' PASSING doc AS "d")`,
	"SELECT 1 FROM t WHERE XMLEXISTS('$d\t/a' PASSING doc AS \"d\")",
	"SELECT 1 FROM t WHERE XMLEXISTS('$d\n/a' PASSING doc AS \"d\")",
	"SELECT 1 FROM t WHERE XMLEXISTS('\t$d/a\n' PASSING doc AS \"d\")",
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b > 1]/c[@d = "2001-01-01"]' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b > 1 or c < 2]' PASSING doc AS "d") AND XMLEXISTS('$d/e[not(f)]' PASSING doc AS "d")`,
	`SELECT XMLQUERY('$d/a/b' PASSING doc AS "d") FROM t`,
	`SELECT XMLQUERY('$d/a/b' PASSING doc AS "d"), XMLQUERY('$d/c' PASSING doc AS "d") FROM t WHERE XMLEXISTS('$d/e' PASSING doc AS "d")`,
	`SELECT COUNT(*) FROM t WHERE XMLEXISTS('$d/a' PASSING doc AS "d")`,
	`select count (*) from t where xmlexists ('$d/a' passing doc as "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS("$d/a" PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS($d/a PASSING doc AS "d")`,
	`SELECT 1 FROM t`,
	`SELECT 1 WHERE XMLEXISTS('$d/a')`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b = ''x'']' PASSING doc AS "d")`,
	`SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b = "x]' PASSING doc AS "d")`,
}

// parityEdgePaths are path spellings at the borders of xpath's grammar.
var parityEdgePaths = []string{
	"/a", "a", ".", "./a", ".//a", "/a/.", "//a", "///a", "/ /a", "/ //a", "//.", "..",
	"a[$x]", "a[b = $x]", "$d/a", "$", "/a[b > 1]", "#", "/a#", "/a/text()", "/a/text ( )",
	"/a/text(", "/a/text()/b", "/a[not b]", "/a[not(b)]", "/a[not]", "/a[contains(b, 'x')]",
	"/a[contains b]", "/a[contains]", "/a[contains(b, 1)]", "/a[(b)]", "/a[()]", "/a[b!=1]",
	"/a[b!1]", "/a[b = -1]", "/a[b = - 1]", "/a[b = 1e5]", "/a[b = 1e]", "/a[b = .5]",
	"/a[b = '2001-01-01T10:00:00']", "/a[b = '2001/01/01']", "/a[b = ' 2001-01-01']",
	"/a[where = 1]", "/a/where", "/for/let/return", "", " ", "@a", "@", "@@a", "*", "/*/@*",
	"/a[b][c]", "/a[b]/c[d]", "/a[]", "/a[b", "/a]", "/a)", "/a,", "/a(", "text()",
	"/a[.= 1]", "/a[. = 1]", "/a[./b = 1]", "/a[.//b]", "/a[..]", "/a[b = c]", "/a[b = 1 2]",
	"/a[b and]", "/a[or]", "/a[b or or c]", "/a[b = 'x' and c = \"y\"]", "/a[b = 'x]",
	"/a:b/c-d/e.f", "/1a", "/-a", "/a-", "/a[b:c = 1]", "/é/ü", "/a{b}", "/a:=b", "/a!",
	"/a[b = 1]/c[d = 2][e]//f", "a b", "/a /b", "/a/ b", "/a / /b",
}
