// Package workload defines the advisor's input: a set of weighted queries
// plus weighted data-modification statements (document inserts and
// deletes), with a plain text file format and split/scale helpers for the
// train-vs-actual workload experiments.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/querylang"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Entry is one weighted query.
type Entry struct {
	Query *querylang.Query
	// Weight is the query's relative frequency in the workload.
	Weight float64
}

// UpdateKind distinguishes data modification statements.
type UpdateKind uint8

const (
	// UpdateInsert inserts a new document.
	UpdateInsert UpdateKind = iota
	// UpdateDelete deletes the documents selected by a path.
	UpdateDelete
)

// String names the kind.
func (k UpdateKind) String() string {
	if k == UpdateDelete {
		return "delete"
	}
	return "insert"
}

// Update is one weighted data-modification statement. Inserts carry a
// representative document; deletes carry a selection path. Either way the
// document's node paths determine which indexes pay maintenance.
type Update struct {
	Kind       UpdateKind
	Collection string
	Weight     float64

	// DocXML is a representative inserted document (inserts), and Doc
	// its parse.
	DocXML string
	Doc    *xmldoc.Document
	// Path selects the documents to delete (deletes).
	Path *xpath.PathExpr
}

// Workload is the advisor input.
type Workload struct {
	Name    string
	Queries []Entry
	Updates []Update
}

// QueryList returns the workload's queries in entry order — the unit a
// what-if evaluation costs a configuration over.
func (w *Workload) QueryList() []*querylang.Query {
	qs := make([]*querylang.Query, len(w.Queries))
	for i, e := range w.Queries {
		qs[i] = e.Query
	}
	return qs
}

// TotalQueryWeight sums the query weights.
func (w *Workload) TotalQueryWeight() float64 {
	var t float64
	for _, e := range w.Queries {
		t += e.Weight
	}
	return t
}

// TotalUpdateWeight sums the update weights.
func (w *Workload) TotalUpdateWeight() float64 {
	var t float64
	for _, u := range w.Updates {
		t += u.Weight
	}
	return t
}

// Collections returns the distinct collections referenced, in first-use
// order.
func (w *Workload) Collections() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range w.Queries {
		if c := e.Query.Collection; c != "" && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, u := range w.Updates {
		if !seen[u.Collection] {
			seen[u.Collection] = true
			out = append(out, u.Collection)
		}
	}
	return out
}

// AddQuery parses and appends a weighted query (language auto-detected).
func (w *Workload) AddQuery(weight float64, text string) error {
	q, err := querylang.ParseAuto(text)
	if err != nil {
		return err
	}
	q.ID = fmt.Sprintf("Q%d", len(w.Queries)+1)
	w.Queries = append(w.Queries, Entry{Query: q, Weight: weight})
	return nil
}

// MustAddQuery is AddQuery panicking on error, for generators.
func (w *Workload) MustAddQuery(weight float64, text string) {
	if err := w.AddQuery(weight, text); err != nil {
		panic(err)
	}
}

// AddInsert parses the document and appends a weighted insert of it.
func (w *Workload) AddInsert(weight float64, collection, docXML string) error {
	d, err := xmldoc.ParseString(docXML)
	if err != nil {
		return fmt.Errorf("insert document: %w", err)
	}
	w.Updates = append(w.Updates, Update{
		Kind: UpdateInsert, Collection: collection, Weight: weight, DocXML: docXML, Doc: d,
	})
	return nil
}

// AddDelete parses the selection path and appends a weighted delete.
func (w *Workload) AddDelete(weight float64, collection, path string) error {
	e, err := xpath.Parse(path)
	if err != nil {
		return err
	}
	w.Updates = append(w.Updates, Update{
		Kind: UpdateDelete, Collection: collection, Weight: weight, Path: e,
	})
	return nil
}

// Split partitions the queries into train and test workloads, assigning
// each query to train with probability trainFrac (seeded, deterministic).
// Updates stay with the training workload.
func (w *Workload) Split(trainFrac float64, seed int64) (train, test *Workload) {
	rng := rand.New(rand.NewSource(seed))
	train = &Workload{Name: w.Name + "-train", Updates: w.Updates}
	test = &Workload{Name: w.Name + "-test"}
	for _, e := range w.Queries {
		if rng.Float64() < trainFrac {
			train.Queries = append(train.Queries, e)
		} else {
			test.Queries = append(test.Queries, e)
		}
	}
	return train, test
}

// Parse reads the text format: one record per non-empty line, fields
// separated by '|'. Lines starting with '#' are comments.
//
//	q|<weight>|<query text>
//	i|<weight>|<collection>|<document xml>
//	d|<weight>|<collection>|<selection path>
func Parse(name, text string) (*Workload, error) {
	w := &Workload{Name: name}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kind, rest, ok := strings.Cut(line, "|")
		if !ok {
			return nil, fmt.Errorf("workload: line %d: missing fields", ln+1)
		}
		weightStr, rest, ok := strings.Cut(rest, "|")
		if !ok {
			return nil, fmt.Errorf("workload: line %d: missing weight separator", ln+1)
		}
		// ParseFloat accepts NaN and ±Inf; a weight must be finite and
		// positive, or every benefit it scales becomes NaN or infinite.
		weight, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
		if err != nil || weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			return nil, fmt.Errorf("workload: line %d: bad weight %q (want a finite positive number)", ln+1, weightStr)
		}
		switch strings.TrimSpace(kind) {
		case "q":
			if err := w.AddQuery(weight, rest); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", ln+1, err)
			}
		case "i":
			coll, doc, ok := strings.Cut(rest, "|")
			if !ok {
				return nil, fmt.Errorf("workload: line %d: insert needs collection|xml", ln+1)
			}
			if err := w.AddInsert(weight, strings.TrimSpace(coll), doc); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", ln+1, err)
			}
		case "d":
			coll, path, ok := strings.Cut(rest, "|")
			if !ok {
				return nil, fmt.Errorf("workload: line %d: delete needs collection|path", ln+1)
			}
			if err := w.AddDelete(weight, strings.TrimSpace(coll), strings.TrimSpace(path)); err != nil {
				return nil, fmt.Errorf("workload: line %d: %w", ln+1, err)
			}
		default:
			return nil, fmt.Errorf("workload: line %d: unknown record kind %q", ln+1, kind)
		}
	}
	return w, nil
}

// Format renders the workload back into the text format.
func (w *Workload) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# workload %s: %d queries, %d updates\n", w.Name, len(w.Queries), len(w.Updates))
	for _, e := range w.Queries {
		fmt.Fprintf(&sb, "q|%g|%s\n", e.Weight, strings.ReplaceAll(e.Query.Text, "\n", " "))
	}
	for _, u := range w.Updates {
		switch u.Kind {
		case UpdateInsert:
			fmt.Fprintf(&sb, "i|%g|%s|%s\n", u.Weight, u.Collection, u.DocXML)
		case UpdateDelete:
			fmt.Fprintf(&sb, "d|%g|%s|%s\n", u.Weight, u.Collection, u.Path)
		}
	}
	return sb.String()
}
