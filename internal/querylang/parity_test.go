package querylang_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/querylang"
	"repro/internal/xpath"
)

var updateParity = flag.Bool("update", false, "re-render the inputs the parse-parity golden file holds")

// TestParseParityGolden pins the parse of every input the golden file
// holds. The inputs were collected when the file was made: the datagen
// XMark, TPoX and paper workloads at several seeds, every XQuery, SQL/XML
// and workload-line literal in the querylang, xpath, workload, core and
// advisor tests (the fuzz seeds included), the xpath tests' path
// literals, and spellings at the borders of the accepted language. Each
// query is held twice, as XQuery ("xq") and as SQL/XML ("sql"); each path
// ("path") is parsed by xpath.Parse. After each input the file holds
// either "error" or the full rendered result (every path with its
// relative/dot flags, every predicate, every leg and its OR group).
// Error texts are not pinned, only that the input is rejected.
//
// The file was generated before the query languages shared one grammar,
// and a change meant to keep the accepted language leaves it
// byte-unchanged. -update re-renders the inputs the file already holds,
// in place and in file order, and never adds or drops one, so a
// deliberate change rewrites only the entries it touches. To pin a new
// input, add its "== <kind> <quoted input>" line and run -update.
func TestParseParityGolden(t *testing.T) {
	path := filepath.Join("testdata", "parse_parity.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries := readParityGolden(t, data)
	if *updateParity {
		var got bytes.Buffer
		for _, e := range entries {
			got.WriteString(e.head)
			if e.kind != "" {
				got.WriteString(renderParse(e.kind, e.input))
			}
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	n := 0
	for _, e := range entries {
		if e.kind == "" {
			continue
		}
		n++
		if got := renderParse(e.kind, e.input); got != e.want {
			t.Errorf("%s %q:\ngot:\n%swant:\n%s", e.kind, e.input, got, e.want)
		}
	}
	if n < 500 {
		t.Fatalf("golden holds %d inputs; the corpus should be far larger", n)
	}
}

// parityEntry is one input of the parse-parity golden file: the lines
// before its rendering (any comment lines, then its "== kind
// quoted-input" line), its kind and input, and the rendering the file
// holds. Comment lines after the last input form an entry of their own
// with an empty kind.
type parityEntry struct {
	head        string
	kind, input string
	want        string
}

// readParityGolden splits the golden file into its entries, in file
// order.
func readParityGolden(t *testing.T, data []byte) []parityEntry {
	var entries []parityEntry
	var head strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "#"):
			head.WriteString(line)
		case strings.HasPrefix(line, "== "):
			k, quoted, _ := strings.Cut(strings.TrimSuffix(line[3:], "\n"), " ")
			in, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("bad golden input line %q: %v", line, err)
			}
			head.WriteString(line)
			entries = append(entries, parityEntry{head: head.String(), kind: k, input: in})
			head.Reset()
		default:
			if len(entries) == 0 {
				t.Fatalf("golden rendering line %q before any input", line)
			}
			entries[len(entries)-1].want += line
		}
	}
	if head.Len() > 0 {
		entries = append(entries, parityEntry{head: head.String()})
	}
	return entries
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
