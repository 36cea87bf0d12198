package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/advisor"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E7UpdateCost reproduces the update-cost analysis (paper §1: "taking
// into account the cost of updating the index on data modification"):
// as the update share of the workload grows, maintenance eats into net
// benefit and the advisor recommends fewer/smaller indexes. Each update
// ratio prepares one candidate space and sweeps two budget points over
// it via Space.WithBudget (unlimited and half the unconstrained size),
// so the constrained row costs only the extra search, not a second
// advisor run.
func E7UpdateCost(env *Env) (string, error) {
	t := newTable("E7: recommendation vs update share (update weight as multiple of query weight; budget sweep per ratio)",
		"upd:qry ratio", "budget", "#idx", "pages", "query benefit", "update cost", "net benefit", "evaluations")
	ctx := context.Background()
	for _, ratio := range []float64{0, 1, 5, 20, 50, 100} {
		w := datagen.XMarkWorkload(20, 1)
		if ratio > 0 {
			datagen.XMarkUpdates(w, ratio*w.TotalQueryWeight(), 1)
		}
		sess, err := env.advisor().Open(ctx, w)
		if err != nil {
			return "", err
		}
		defer sess.Close()
		unlimited, err := sess.Recommend(ctx, advisor.RecommendRequest{Strategy: "greedy-heuristic"})
		if err != nil {
			return "", err
		}
		type budgetRow struct {
			label  string
			budget int64
		}
		rows := []budgetRow{{"unlimited", 0}}
		// The constrained point only exists when there is something to
		// halve: at high update ratios the advisor recommends nothing,
		// and a fabricated budget-0 row would just repeat the
		// unconstrained one.
		if half := unlimited.TotalPages / 2; half >= 1 {
			rows = append(rows, budgetRow{fmt.Sprintf("%d", half), half})
		}
		for _, row := range rows {
			rec := unlimited
			if row.budget > 0 {
				if rec, err = sess.Recommend(ctx, advisor.RecommendRequest{
					Strategy: "greedy-heuristic", BudgetPages: row.budget}); err != nil {
					return "", err
				}
			}
			t.add(fmt.Sprintf("%.1f", ratio), row.label, len(rec.Indexes), rec.TotalPages,
				rec.QueryBenefit, rec.UpdateCost, rec.NetBenefit, rec.Evaluations)
		}
	}
	return t.String(), nil
}

// E8ActualExecution reproduces the demo's final step: materialize the
// recommended configuration and display actual execution times, doc scan
// vs indexed plan, per query, on the XMark, TPoX and paper workloads. It
// also checks the optimizer's estimates against execution: for each
// index plan, the estimated and built entries of every index it uses,
// the estimated and executed fetched documents, and the plan's estimated
// cost beside the executed work priced with the same cost model. Each
// workload ends with the fetch q-error median and max over its index
// plans.
func E8ActualExecution(env *Env) (string, error) {
	var sb strings.Builder
	for _, w := range []*workload.Workload{env.XMarkWorkload, env.TPoXWorkload, env.PaperWorkload} {
		rows, err := e8Rows(env, w)
		if err != nil {
			return "", err
		}
		t := newTable(fmt.Sprintf("E8: actual execution on %s, no indexes vs recommended configuration (demo final step)", w.Name),
			"query", "rows", "scan µs", "indexed µs", "speedup", "scan nodes", "idx nodes", "plan",
			"entries est/built", "fetch est", "fetched", "est cost", "priced work")
		var logSum float64
		var qerrs []float64
		for _, r := range rows {
			su := float64(r.scan.Metrics.Duration.Microseconds()+1) / float64(r.idx.Metrics.Duration.Microseconds()+1)
			kind, entries, fetchEst, fetched, estCost, work := "DOCSCAN", "-", "-", "-", "-", "-"
			if r.plan.UsesIndexes() {
				kind = "IXSCAN(" + strings.Join(r.plan.IndexNames(), ",") + ")"
				entries = strings.Join(r.entries, ",")
				fetchEst = fmt.Sprintf("%.1f", r.plan.FetchDocs)
				fetched = fmt.Sprint(r.idx.Metrics.DocsFetched)
				estCost = fmt.Sprintf("%.1f", r.plan.Cost)
				work = fmt.Sprintf("%.1f", r.work)
				logSum += math.Log(su)
				qerrs = append(qerrs, qError(r.plan.FetchDocs, float64(r.idx.Metrics.DocsFetched)))
			}
			t.add(r.id, r.scan.Rows,
				r.scan.Metrics.Duration.Microseconds(), r.idx.Metrics.Duration.Microseconds(),
				fmt.Sprintf("%.1fx", su),
				r.scan.Metrics.NodesVisited, r.idx.Metrics.NodesVisited, kind,
				entries, fetchEst, fetched, estCost, work)
		}
		n := len(qerrs)
		geo := 1.0
		if n > 0 {
			geo = math.Exp(logSum / float64(n))
		}
		sb.WriteString(t.String())
		fmt.Fprintf(&sb, "geometric-mean speedup over indexed queries: %.1fx (%d of %d queries use indexes)\n",
			geo, n, len(rows))
		if n > 0 {
			sort.Float64s(qerrs)
			fmt.Fprintf(&sb, "fetched-documents q-error over index plans: median %.2f, max %.2f\n",
				(qerrs[(n-1)/2]+qerrs[n/2])/2, qerrs[n-1])
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// e8Row is one query of E8: its document scan, its plan under the
// materialized recommendation, that plan's execution, the estimated and
// built entries of each index the plan uses ("est/built", in
// IndexNames order) and the executed work priced by the cost model.
type e8Row struct {
	id        string
	scan, idx *executor.Result
	plan      *optimizer.Plan
	entries   []string
	work      float64
}

// e8Rows recommends for w with the default strategy, materializes the
// recommendation on a fresh catalog and runs every query both ways.
func e8Rows(env *Env, w *workload.Workload) ([]e8Row, error) {
	cat := env.freshCatalog()
	a, err := advisor.New(cat)
	if err != nil {
		return nil, err
	}
	rec, err := a.Recommend(context.Background(), w, advisor.RecommendRequest{})
	if err != nil {
		return nil, err
	}
	if _, err := a.Materialize(rec); err != nil {
		return nil, err
	}
	estEntries := map[string]int64{}
	for _, ix := range rec.Indexes {
		estEntries[ix.Name] = ix.Entries
	}
	opt := optimizer.New(cat)
	ex := executor.New(cat)
	var rows []e8Row
	for _, e := range w.Queries {
		r := e8Row{id: e.Query.ID}
		if r.scan, err = ex.Run(e.Query, nil); err != nil {
			return nil, err
		}
		if r.plan, err = opt.Optimize(e.Query, nil); err != nil {
			return nil, err
		}
		if r.idx, err = ex.Run(e.Query, r.plan); err != nil {
			return nil, err
		}
		if r.scan.Rows != r.idx.Rows {
			return nil, fmt.Errorf("E8: result mismatch on %s: %d vs %d", e.Query.ID, r.scan.Rows, r.idx.Rows)
		}
		for _, name := range r.plan.IndexNames() {
			r.entries = append(r.entries, fmt.Sprintf("%d/%d", estEntries[name], cat.Index(name).Phys.Entries()))
		}
		st, err := cat.Stats(e.Query.Collection)
		if err != nil {
			return nil, err
		}
		r.work = pricedWork(opt.Cost, st, r.idx.Metrics)
		rows = append(rows, r)
	}
	return rows, nil
}

// pricedWork prices an execution's recorded work with the cost model the
// optimizer estimates by: leaf pages read and entries scanned, one
// random read per fetched document page, and every node visited.
func pricedWork(c optimizer.CostModel, st *stats.Stats, m executor.Metrics) float64 {
	pagesPerDoc := 1.0
	if st.Docs > 0 {
		pagesPerDoc = max(1, float64(st.Pages)/float64(st.Docs))
	}
	return float64(m.IndexLeaves)*c.IOPage + float64(m.IndexEntries)*c.CPUEntry +
		float64(m.DocsFetched)*pagesPerDoc*c.IORandom + float64(m.NodesVisited)*c.CPUNode
}

// qError is the symmetric ratio between an estimate and the actual
// value, each floored at 1 so that empty results compare finitely.
func qError(est, actual float64) float64 {
	est, actual = max(est, 1), max(actual, 1)
	return max(est/actual, actual/est)
}
