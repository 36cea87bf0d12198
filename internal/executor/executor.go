// Package executor runs optimized plans against the real store and real
// indexes. It exists for the final step of the paper's demonstration:
// after the advisor's recommended configuration is actually created, "the
// actual execution time taken by the queries can then be displayed".
//
// A document-scan plan evaluates the query on every document. An index
// plan scans the chosen physical indexes, verifies entry paths, ANDs the
// resulting document ID sets, and completes the query by evaluating it
// only on the surviving documents.
package executor

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Metrics records the observable work a query execution performed.
type Metrics struct {
	DocsScanned     int           // documents fully evaluated
	NodesVisited    int64         // navigation steps during evaluation
	IndexLeaves     int           // B+ tree leaf pages read
	IndexEntries    int           // index entries scanned
	DocsFetched     int           // documents fetched by index plans
	Duration        time.Duration // wall-clock execution time
	IndexesUsed     []string
	ResultNodes     int // nodes produced by extraction paths
	BindingMatches  int // binding nodes that survived all filters
	DocsQualified   int // documents contributing at least one result
	PagesReadApprox int64
}

// Result is the outcome of executing a query.
type Result struct {
	// Rows is the number of result rows under the query's semantics
	// (binding nodes, or qualifying documents for SQL/XML).
	Rows    int
	Metrics Metrics
}

// Executor executes queries against a catalog's store and indexes.
type Executor struct {
	Cat *catalog.Catalog
}

// New returns an executor over the catalog.
func New(cat *catalog.Catalog) *Executor {
	return &Executor{Cat: cat}
}

// Run executes the query with the given plan. A nil plan (or one without
// index anchors) runs a full document scan. Index plans require the
// anchor indexes to be physically built.
func (e *Executor) Run(q *querylang.Query, plan *optimizer.Plan) (*Result, error) {
	col, err := e.Cat.Collection(q.Collection)
	if err != nil {
		return nil, fmt.Errorf("executor: %w", err)
	}
	start := time.Now()
	var res *Result
	if plan == nil || !plan.UsesIndexes() {
		res, err = e.runDocScan(q, col)
	} else {
		res, err = e.runIndexPlan(q, col, plan)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics.Duration = time.Since(start)
	return res, nil
}

// runDocScan evaluates the query on every document.
func (e *Executor) runDocScan(q *querylang.Query, col *store.Collection) (*Result, error) {
	res := &Result{}
	var ev xpath.Evaluator
	col.Each(func(d *xmldoc.Document) bool {
		res.Metrics.DocsScanned++
		e.evalDoc(q, d, &ev, res)
		return true
	})
	res.Metrics.NodesVisited = ev.Visited
	res.Metrics.PagesReadApprox = col.Pages()
	return res, nil
}

// runIndexPlan scans the anchor indexes, intersects the document sets,
// and evaluates the query on surviving documents only.
func (e *Executor) runIndexPlan(q *querylang.Query, col *store.Collection, plan *optimizer.Plan) (*Result, error) {
	res := &Result{}
	var candidate map[xmldoc.DocID]bool
	for _, a := range plan.Access {
		var docs map[xmldoc.DocID]bool
		if a.IsOr() {
			// Index ORing: union the member scans' document sets.
			docs = map[xmldoc.DocID]bool{}
			for _, m := range a.Members {
				mdocs, err := e.scanAccess(&m, res)
				if err != nil {
					return nil, err
				}
				for id := range mdocs {
					docs[id] = true
				}
			}
		} else {
			var err error
			docs, err = e.scanAccess(&a, res)
			if err != nil {
				return nil, err
			}
		}
		if candidate == nil {
			candidate = docs
		} else {
			for id := range candidate {
				if !docs[id] {
					delete(candidate, id)
				}
			}
		}
	}
	ids := make([]xmldoc.DocID, 0, len(candidate))
	for id := range candidate {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var ev xpath.Evaluator
	for _, id := range ids {
		d := col.Get(id)
		if d == nil {
			continue
		}
		res.Metrics.DocsFetched++
		e.evalDoc(q, d, &ev, res)
	}
	res.Metrics.NodesVisited = ev.Visited
	pagesPerDoc := int64(1)
	if col.Len() > 0 {
		if ppd := col.Pages() / int64(col.Len()); ppd > 1 {
			pagesPerDoc = ppd
		}
	}
	res.Metrics.PagesReadApprox = int64(res.Metrics.DocsFetched)*pagesPerDoc + int64(res.Metrics.IndexLeaves)
	return res, nil
}

// scanAccess runs one index scan with residual path verification and
// returns the set of matching document IDs.
func (e *Executor) scanAccess(a *optimizer.LegAccess, res *Result) (map[xmldoc.DocID]bool, error) {
	def := e.Cat.Index(a.Index.Name)
	if def == nil || def.Phys == nil {
		return nil, fmt.Errorf("executor: plan uses index %q which is not physically built", a.Index.Name)
	}
	res.Metrics.IndexesUsed = append(res.Metrics.IndexesUsed, def.Name)
	scan, err := def.Phys.Scan(a.Leg.Op, a.Leg.Value)
	if err != nil {
		return nil, fmt.Errorf("executor: %w", err)
	}
	res.Metrics.IndexLeaves += scan.LeavesRead
	res.Metrics.IndexEntries += len(scan.Entries)

	// Verify entry paths when the index is more general than the leg,
	// deciding each distinct indexed path once per scan.
	var m *pattern.Matcher
	var pathOK map[int32]bool
	if a.ResidualPathCheck {
		m = pattern.InternedMatcher(a.Leg.Pattern)
		pathOK = map[int32]bool{}
	}
	docs := map[xmldoc.DocID]bool{}
	for _, entry := range scan.Entries {
		if m != nil {
			ok, seen := pathOK[entry.Path]
			if !seen {
				ok = m.MatchWord(def.Phys.PathWord(entry.Path))
				pathOK[entry.Path] = ok
			}
			if !ok {
				continue
			}
		}
		docs[entry.Doc] = true
	}
	return docs, nil
}

// evalDoc applies the full query semantics to one document, accumulating
// rows and extraction counts into res.
func (e *Executor) evalDoc(q *querylang.Query, d *xmldoc.Document, ev *xpath.Evaluator, res *Result) {
	bind := ev.Eval(d, q.Binding)
	if len(bind) == 0 {
		return
	}
	for _, dc := range q.DocConds {
		if len(ev.Eval(d, dc)) == 0 {
			return
		}
	}
	survivors := bind[:0:0]
	for _, n := range bind {
		if q.Where != nil && !evalWhere(ev, n, q.Where) {
			continue
		}
		survivors = append(survivors, n)
	}
	if len(survivors) == 0 {
		return
	}
	res.Metrics.DocsQualified++
	res.Metrics.BindingMatches += len(survivors)
	if q.PerDocument {
		res.Rows++
	} else {
		res.Rows += len(survivors)
	}
	for _, r := range q.Returns {
		for _, n := range survivors {
			res.Metrics.ResultNodes += len(ev.EvalFrom(n, r))
		}
	}
	for _, r := range q.DocReturns {
		res.Metrics.ResultNodes += len(ev.Eval(d, r))
	}
}

// evalWhere evaluates a where expression with paths relative to ctx.
func evalWhere(ev *xpath.Evaluator, ctx *xmldoc.Node, expr xpath.BoolExpr) bool {
	switch x := expr.(type) {
	case *xpath.AndExpr:
		return evalWhere(ev, ctx, x.L) && evalWhere(ev, ctx, x.R)
	case *xpath.OrExpr:
		return evalWhere(ev, ctx, x.L) || evalWhere(ev, ctx, x.R)
	case *xpath.NotExpr:
		return !evalWhere(ev, ctx, x.E)
	case *xpath.ExistsExpr:
		return len(ev.EvalFrom(ctx, x.Path)) > 0
	case *xpath.Comparison:
		for _, n := range ev.EvalFrom(ctx, x.Path) {
			if sqltype.Eval(xpath.NodeValue(n), x.Op, x.Value) {
				return true
			}
		}
		return false
	}
	return false
}
